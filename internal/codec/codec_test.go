package codec

import (
	"errors"
	"io"
	"testing"
)

// Skip steps over a string's bytes and refuses what the payload cannot
// hold, a negative length included; a decoder seeded with an error reads
// zeros and reports that error.
func TestSkipAndSeededError(t *testing.T) {
	var e Encoder
	e.U16(3).Raw([]byte("abc")).U32(7)
	d := MakeDecoder(e.Bytes(), nil)
	d.Skip(int(d.U16()))
	if v := d.U32(); v != 7 || d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("after skipping the string: U32 = %d, err %v, %d bytes left", v, d.Err(), d.Remaining())
	}
	for _, n := range []int{-1, 3} {
		d := MakeDecoder(e.Bytes()[:2], nil)
		if d.Skip(n); !errors.Is(d.Err(), ErrShortPayload) {
			t.Errorf("Skip(%d) over 2 bytes: err = %v, want ErrShortPayload", n, d.Err())
		}
	}
	failed := MakeDecoder(e.Bytes(), io.EOF)
	if v := failed.U16(); v != 0 || failed.Err() != io.EOF {
		t.Fatalf("seeded decoder read %d, err %v; want 0, io.EOF", v, failed.Err())
	}
}
