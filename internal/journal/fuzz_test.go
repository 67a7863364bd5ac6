package journal

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame feeds the frame decoder arbitrary bytes: it must
// return an error or a valid record, never panic, and never read past
// the input. Valid decodes must be exact round-trips of EncodeFrame.
func FuzzDecodeFrame(f *testing.F) {
	good, _ := EncodeFrame([]byte("seed-record"))
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, 64))                           // zero run: must not decode
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // oversized length
	f.Add(good[:len(good)-2])                         // torn tail
	two := append(append([]byte(nil), good...), good...)
	f.Add(two)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Scan like segment replay does: decode frames until the first
		// error. Every step must consume at least a header's worth and
		// never over-read.
		rest := data
		for {
			payload, next, err := DecodeFrame(rest)
			if err != nil {
				if payload != nil {
					t.Fatalf("error %v with non-nil payload", err)
				}
				break
			}
			if len(payload) == 0 {
				t.Fatal("decoded an empty record")
			}
			consumed := len(rest) - len(next)
			if consumed != headerSize+len(payload) {
				t.Fatalf("consumed %d bytes for a %d-byte payload", consumed, len(payload))
			}
			if consumed <= 0 || len(next) > len(rest) {
				t.Fatal("scan did not advance")
			}
			// A decoded record must re-encode to exactly the bytes that
			// produced it.
			frame, eerr := EncodeFrame(payload)
			if eerr != nil {
				t.Fatalf("valid decode does not re-encode: %v", eerr)
			}
			if !bytes.Equal(frame, rest[:consumed]) {
				t.Fatal("decode/encode round-trip mismatch")
			}
			rest = next
		}
	})
}
