package cslc

// RunSinglePrecision executes the timed pipeline entirely in 32-bit
// complex arithmetic — the precision the paper's machines actually used
// ("All computations are done using single-precision floating-point
// operations"). Inputs and weights are rounded to float32 on entry, the
// pipeline is Run's stream at complex64, and the output is widened back
// to complex128 for comparison against the double-precision pipeline.
func RunSinglePrecision(s Spec, channels [][]complex128, w *Weights) (*Output, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := checkChannels(s, channels); err != nil {
		return nil, err
	}
	w32 := make([][][]complex64, len(w.W))
	for m, ws := range w.W {
		w32[m] = round32(ws)
	}
	out, emit := collect[complex64](s)
	if err := stream(s, round32(channels), w32, emit); err != nil {
		return nil, err
	}
	return out, nil
}

// round32 rounds every value of rows to single precision.
func round32(rows [][]complex128) [][]complex64 {
	out := make([][]complex64, len(rows))
	for i, r := range rows {
		out[i] = make([]complex64, len(r))
		for j, v := range r {
			out[i][j] = complex64(v)
		}
	}
	return out
}
