package ledger

import (
	"bytes"
	"testing"
)

// FuzzRead feeds Read arbitrary bytes. It must never panic, and any
// stream it accepts must round-trip: its records, marshalled with
// Marshal and read back, marshal to the same bytes.
func FuzzRead(f *testing.F) {
	f.Add([]byte(`{"t":"manifest","plan":"fig7","seed":"00000000000000ff","cells":4,"model":"m","scale":0.5,"flags":{"exp":"fig7"}}` + "\n\n" +
		`{"t":"cell_finish","i":3,"status":"failed","err":"boom"}` + "\n"))
	f.Add([]byte(`{"t":"plan_end","ok":2,"quarantined":1,"failed":1}`))
	f.Add([]byte("null\n{}\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		recs, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		first, err := Marshal(recs)
		if err != nil {
			t.Fatalf("accepted stream %q does not marshal: %v", in, err)
		}
		again, err := Read(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("accepted stream %q marshals to a stream Read rejects: %v\n%s", in, err, first)
		}
		second, err := Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("accepted stream %q does not round-trip:\n--- first ---\n%s--- second ---\n%s", in, first, second)
		}
	})
}
