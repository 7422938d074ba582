package dataset

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzStreamCSV feeds arbitrary bytes through the ingest edge every binary
// reads its input with — StreamCSV → EncodeStream — which must answer a
// hostile document with an error, never a panic or a hang. When the bytes
// do parse, the streamed table equals ReadCSV of the same bytes and every
// encoded row decodes back to its tuple's strings.
func FuzzStreamCSV(f *testing.F) {
	f.Add([]byte(streamFixture)) // BOM header, quoted multi-line field
	f.Add([]byte("A,B\n1,2\n3\n"))
	f.Add([]byte("A,B\n1,2,3\n"))
	f.Add([]byte("A,A\n1,2\n"))
	f.Add([]byte("A,B\n\"open,2\n"))
	f.Add([]byte("A\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := ReadCSV(bytes.NewReader(b))
		s, err := StreamCSV(bytes.NewReader(b))
		if err != nil {
			if wantErr == nil {
				t.Fatalf("StreamCSV rejects a header ReadCSV accepts: %v", err)
			}
			return
		}
		tb, enc, err := EncodeStream(s, nil)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("EncodeStream err = %v, ReadCSV err = %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !tb.Schema.Equal(want.Schema) || tb.Len() != want.Len() || len(enc.Rows) != tb.Len() {
			t.Fatalf("streamed %v × %d rows (%d encoded), ReadCSV %v × %d",
				tb.Schema.Attrs(), tb.Len(), len(enc.Rows), want.Schema.Attrs(), want.Len())
		}
		for i, tu := range tb.Tuples {
			if tu.ID != want.Tuples[i].ID || !reflect.DeepEqual(tu.Values, want.Tuples[i].Values) {
				t.Fatalf("tuple %d: streamed %+v, ReadCSV %+v", i, tu, want.Tuples[i])
			}
			for j, id := range enc.Rows[i] {
				if got := enc.Dict.Value(id); got != tu.Values[j] {
					t.Fatalf("cell (%d,%d): ID %d decodes to %q, tuple holds %q", i, j, id, got, tu.Values[j])
				}
			}
		}
	})
}
