package huffman

import "testing"

// FuzzDecode drives the canonical Huffman decoder with arbitrary bytes: no
// panics, and accepted streams must re-encode consistently.
func FuzzDecode(f *testing.F) {
	good, _ := Encode([]uint32{0, 1, 2, 1, 0, 3, 3, 3}, 8)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(overSubscribed)
	f.Add(good[:len(good)-1]) // truncated body
	f.Fuzz(func(t *testing.T, data []byte) {
		syms, alphabet, err := Decode(data)
		if err != nil {
			return
		}
		for _, s := range syms {
			if s >= alphabet {
				t.Fatalf("decoded symbol %d outside alphabet %d", s, alphabet)
			}
		}
		// An accepted stream's symbols must survive a fresh round trip.
		enc, err := Encode(syms, alphabet)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, _, err := Decode(enc)
		if err != nil || len(back) != len(syms) {
			t.Fatalf("re-decode failed: %v", err)
		}
		for i := range syms {
			if back[i] != syms[i] {
				t.Fatalf("re-decode mismatch at %d", i)
			}
		}
	})
}
