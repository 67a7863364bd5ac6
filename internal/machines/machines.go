// Package machines constructs the study's machine models with their
// paper configurations: the PowerPC G4 baseline (scalar and AltiVec) and
// the three research architectures (VIRAM, Imagine, Raw).
package machines

import (
	"fmt"

	"sigkern/internal/core"
	"sigkern/internal/imagine"
	"sigkern/internal/ppc"
	"sigkern/internal/rawsim"
	"sigkern/internal/viram"
)

// Baseline is the name of the speedup baseline used by Figures 8 and 9
// (the paper normalizes to the G4 with AltiVec).
const Baseline = "AltiVec"

// All returns every machine in the paper's Table 3 row order:
// PPC, AltiVec, VIRAM, Imagine, Raw.
func All() []core.Machine {
	return []core.Machine{
		ppc.New(ppc.DefaultConfig(ppc.Scalar)),
		ppc.New(ppc.DefaultConfig(ppc.AltiVec)),
		viram.New(viram.DefaultConfig()),
		imagine.New(imagine.DefaultConfig()),
		rawsim.New(rawsim.DefaultConfig()),
	}
}

// Research returns only the three research architectures.
func Research() []core.Machine {
	return []core.Machine{
		viram.New(viram.DefaultConfig()),
		imagine.New(imagine.DefaultConfig()),
		rawsim.New(rawsim.DefaultConfig()),
	}
}

// Names returns the machine names in Table 3 row order without
// constructing any machine. It must stay in sync with All; the package
// tests assert the correspondence.
func Names() []string {
	return []string{"PPC", "AltiVec", "VIRAM", "Imagine", "Raw"}
}

// Valid reports whether name is a known machine, without the cost of
// building one — machine construction allocates cache and DRAM state,
// which validation hot paths (every job submission) must not pay.
func Valid(name string) error {
	for _, n := range Names() {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("machines: unknown machine %q", name)
}

// Host names the hardware a machine row runs on. The PPC and AltiVec
// rows are one PowerPC G4 ("G4") under two code generators, so one spec
// walks the same memory trace on both (package ppc memoizes it); every
// other row is its own hardware.
func Host(name string) string {
	if name == "PPC" || name == "AltiVec" {
		return "G4"
	}
	return name
}

// ByName returns the named machine with its default configuration. Only
// the requested machine is constructed.
func ByName(name string) (core.Machine, error) {
	switch name {
	case "PPC":
		return ppc.New(ppc.DefaultConfig(ppc.Scalar)), nil
	case "AltiVec":
		return ppc.New(ppc.DefaultConfig(ppc.AltiVec)), nil
	case "VIRAM":
		return viram.New(viram.DefaultConfig()), nil
	case "Imagine":
		return imagine.New(imagine.DefaultConfig()), nil
	case "Raw":
		return rawsim.New(rawsim.DefaultConfig()), nil
	}
	return nil, fmt.Errorf("machines: unknown machine %q", name)
}
