package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzDecode drives the envelope parser with arbitrary bytes. Decode must
// never panic: it returns either an error and no snapshot, or a snapshot of
// the current version with a non-empty stage. Each input is decoded twice,
// as given and wrapped in a valid header, so the fuzzer reaches the JSON
// payload and its version and stage checks past the CRC.
func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	snap := sampleSnapshot(2)
	snap.Version = Version
	if err := Encode(&buf, snap); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:headerSize-1])
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[16] ^= 0x01 // CRC
	f.Add(flipped)
	buf.Reset()
	snap.Version = Version + 1
	if err := Encode(&buf, snap); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(valid[headerSize:]) // bare payload: valid only once wrapped
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecode(t, "raw", raw)
		checkDecode(t, "wrapped", envelope(raw))
	})
}

// checkDecode decodes raw and requires the Decode contract.
func checkDecode(t *testing.T, what string, raw []byte) {
	got, err := Decode(raw)
	if err != nil {
		if got != nil {
			t.Fatalf("%s: Decode returned both a snapshot and %v", what, err)
		}
		return
	}
	if got == nil || got.Stage == "" || got.Version != Version {
		t.Fatalf("%s: Decode accepted %+v", what, got)
	}
}

// envelope wraps payload in a header with its true length and CRC32.
func envelope(payload []byte) []byte {
	out := make([]byte, headerSize, headerSize+len(payload))
	copy(out, magic[:])
	binary.LittleEndian.PutUint64(out[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[16:20], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}
