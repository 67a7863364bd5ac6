package ppc

import (
	"encoding/json"
	"fmt"

	"sigkern/internal/cache"
	"sigkern/internal/core"
	"sigkern/internal/dram"
)

// The PPC and AltiVec rows are one G4 under two code generators: a
// kernel's access trace and the L1/L2/DRAM hierarchy it walks are the
// same for both. What the walk costs the hierarchy (the raw read and
// write miss stall and the access count) reads nothing else of the
// machine; the variant, IssueWidth, the functional-unit latencies and
// the MLP factors enter only afterwards, in the cost model. So each
// trace is walked once per process and its cost memoized, keyed by
// everything the walk reads: the kernel, its spec, and the L1, L2 and
// DRAM configs.

// walkCost is what one kernel's access walk costs the hierarchy.
type walkCost struct {
	// readStall and writeStall are the raw miss latency beyond the L1
	// hit, summed in walk order before the MLP factors divide them.
	readStall, writeStall float64
	accesses              uint64
}

// walkBudget bounds the bytes the trace memo retains.
const walkBudget = 256 << 10

// walkEntryBytes is what one memoized cost is charged beside its key:
// the 24-byte value and its share of the table.
const walkEntryBytes = 80

// walks memoizes walk costs by walkKey.
var walks = cache.NewSizedMemo("ppc_trace", walkBudget, func(walkCost) int { return walkEntryBytes })

// walkKey is the trace memo key of one kernel's walk on m: the kernel,
// its spec, and the memory configs.
func (m *Machine) walkKey(kernel core.KernelID, spec any) string {
	key, err := json.Marshal(struct {
		Kernel core.KernelID
		Spec   any
		L1, L2 cache.Config
		DRAM   dram.Config
	}{kernel, spec, m.cfg.L1, m.cfg.L2, m.cfg.DRAM})
	if err != nil {
		// Specs and configs are plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("ppc: trace key: %v", err))
	}
	return string(key)
}

// walk charges one kernel run's memory walk to m, which Reset has just
// rewound; trace issues the run's accesses through m.access. The cost
// comes from the trace memo, or else trace runs on m's hierarchy, built
// here on the instance's first walk, and its cost is stored.
func (m *Machine) walk(key string, trace func()) {
	c, _ := walks.Do(key, func() (walkCost, error) {
		m.hierarchy()
		trace()
		return walkCost{m.readStall, m.writeStal, m.memAccesses}, nil
	})
	m.readStall, m.writeStal, m.memAccesses = c.readStall, c.writeStall, c.accesses
}
