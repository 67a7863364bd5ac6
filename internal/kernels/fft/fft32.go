package fft

// Transform32 computes the plan's transform on single-precision complex
// data, the arithmetic width the paper's kernels actually use ("All
// computations are done using single-precision floating-point
// operations"). It runs the same core as Transform over the plan's
// twiddles rounded to float32, so the round-off behaviour matches a real
// single-precision implementation; the complex128 Transform remains the
// high-precision reference.
func (p *Plan) Transform32(dst, src []complex64) error {
	return transform(p, dst, src, p.tw32, p.subTw32, &mixedScratch32)
}

// round32 rounds a twiddle table to single precision.
func round32(tw []complex128) []complex64 {
	out := make([]complex64, len(tw))
	for i, w := range tw {
		out[i] = complex64(w)
	}
	return out
}
