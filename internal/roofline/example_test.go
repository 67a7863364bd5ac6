package roofline_test

import (
	"fmt"

	"sigkern/internal/core"
	"sigkern/internal/roofline"
)

// Example reproduces the Section 2.5 reasoning for the corner turn: the
// peak-bandwidth bounds the paper compares its measurements against.
func Example() {
	w := core.PaperWorkload()
	for _, name := range []string{"VIRAM", "Imagine", "Raw"} {
		e, err := roofline.ForJob(name, core.CornerTurn, w)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: peak-model corner turn = %dk cycles\n", name, e.PeakCycles/1000)
	}
	// Output:
	// VIRAM: peak-model corner turn = 262k cycles
	// Imagine: peak-model corner turn = 1048k cycles
	// Raw: peak-model corner turn = 131k cycles
}
