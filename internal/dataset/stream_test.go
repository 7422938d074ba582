package dataset

import (
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

const streamFixture = "\xEF\xBB\xBFCity,State,Zip\n" +
	"BOAZ,AL,35956\n" +
	"BOAZ,AL,35957\n" +
	"\"multi\nline\",XX,00000\n" +
	"GADSDEN,AL,35901\n"

func TestStreamCSVMatchesReadCSV(t *testing.T) {
	want, err := ReadCSV(strings.NewReader(streamFixture))
	if err != nil {
		t.Fatal(err)
	}
	s, err := StreamCSV(strings.NewReader(streamFixture))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Schema.Attrs(), got.Schema.Attrs()) {
		t.Fatalf("schema mismatch: %v vs %v", want.Schema.Attrs(), got.Schema.Attrs())
	}
	if want.Len() != got.Len() {
		t.Fatalf("row count: %d vs %d", want.Len(), got.Len())
	}
	for i := range want.Tuples {
		if want.Tuples[i].ID != got.Tuples[i].ID || !reflect.DeepEqual(want.Tuples[i].Values, got.Tuples[i].Values) {
			t.Fatalf("tuple %d: %+v vs %+v", i, want.Tuples[i], got.Tuples[i])
		}
	}
}

func TestStreamCSVRowsNotRetained(t *testing.T) {
	s, err := StreamCSV(strings.NewReader("A,B\n1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	a0 := first[0]
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	// The slice is documented as reused; this pins the ReuseRecord wiring so
	// accidental retention in a caller would surface as a test change here.
	if first[0] == a0 && a0 != "3" {
		t.Logf("reader reused the record buffer (first now %q)", first[0])
	}
}

func TestStreamCSVRaggedRowError(t *testing.T) {
	for _, doc := range []string{
		"A,B\n1\n",
		"A,B\n1,2,3\n",
	} {
		_, wantErr := ReadCSV(strings.NewReader(doc))
		s, err := StreamCSV(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		var gotErr error
		for {
			if _, gotErr = s.Next(); gotErr != nil {
				break
			}
		}
		if gotErr == io.EOF {
			gotErr = nil
		}
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("error mismatch for %q:\n  ReadCSV:   %v\n  StreamCSV: %v", doc, wantErr, gotErr)
		}
	}
}

func TestStreamEncoderMatchesEncode(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader(streamFixture))
	if err != nil {
		t.Fatal(err)
	}
	wantEnc := Encode(tb, nil)

	s, err := StreamCSV(strings.NewReader(streamFixture))
	if err != nil {
		t.Fatal(err)
	}
	gotTb, gotEnc, err := EncodeStream(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotTb.Len() != tb.Len() {
		t.Fatalf("row count: %d vs %d", gotTb.Len(), tb.Len())
	}
	for i := range tb.Tuples {
		if !reflect.DeepEqual(tb.Tuples[i].Values, gotTb.Tuples[i].Values) {
			t.Fatalf("tuple %d values: %v vs %v", i, tb.Tuples[i].Values, gotTb.Tuples[i].Values)
		}
		if !reflect.DeepEqual(wantEnc.Rows[i], gotEnc.Rows[i]) {
			t.Fatalf("encoded row %d: %v vs %v", i, wantEnc.Rows[i], gotEnc.Rows[i])
		}
	}
	// First-sight ID assignment must match, so the dictionaries decode
	// identically.
	for i, row := range wantEnc.Rows {
		for j, id := range row {
			if wantEnc.Dict.Value(id) != gotEnc.Dict.Value(gotEnc.Rows[i][j]) {
				t.Fatalf("cell (%d,%d) decodes differently", i, j)
			}
		}
	}
}

func TestEncodeStreamRaggedRowPropagates(t *testing.T) {
	s, err := StreamCSV(strings.NewReader("A,B\n1,2\n3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := EncodeStream(s, nil); err == nil {
		t.Fatal("want ragged-row error, got nil")
	}
}

// sliceStream yields n generated rows over a three-attribute schema, with
// repeating and fresh values mixed so IDs are shared across chunk edges.
type sliceStream struct {
	schema *Schema
	i, n   int
	row    []string
}

func (s *sliceStream) Schema() *Schema { return s.schema }

func (s *sliceStream) Next() ([]string, error) {
	if s.i == s.n {
		return nil, io.EOF
	}
	s.row = append(s.row[:0], "k"+strconv.Itoa(s.i%7), "v"+strconv.Itoa(s.i), "")
	s.i++
	return s.row, nil
}

// TestStreamEncoderChunkBoundaries: the encoder carves tuples, value slices
// and ID rows out of shared chunks. Tables ending just before, on and just
// after a chunk edge — the first chunk's, and several later ones in a table
// spanning three full-size chunks — encode bit-identically to ReadAll +
// Encode, and no tuple's slices can grow into its neighbour's.
func TestStreamEncoderChunkBoundaries(t *testing.T) {
	schema := MustSchema("K", "V", "E")
	for _, n := range []int{encMinChunkRows - 1, encMinChunkRows, encMinChunkRows + 1, 3*encChunkRows + 1} {
		want, err := ReadAll(&sliceStream{schema: schema, n: n})
		if err != nil {
			t.Fatal(err)
		}
		wantEnc := Encode(want, nil)
		got, gotEnc, err := EncodeStream(&sliceStream{schema: schema, n: n}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != n || len(gotEnc.Rows) != n {
			t.Fatalf("n=%d: %d tuples, %d encoded rows", n, got.Len(), len(gotEnc.Rows))
		}
		for i, tu := range got.Tuples {
			if tu.ID != want.Tuples[i].ID || !reflect.DeepEqual(tu.Values, want.Tuples[i].Values) {
				t.Fatalf("n=%d: tuple %d = %+v, want %+v", n, i, tu, want.Tuples[i])
			}
			if !reflect.DeepEqual(gotEnc.Rows[i], wantEnc.Rows[i]) {
				t.Fatalf("n=%d: encoded row %d = %v, want %v", n, i, gotEnc.Rows[i], wantEnc.Rows[i])
			}
		}
		for i, tu := range got.Tuples {
			_ = append(tu.Values, "overflow")
			_ = append(gotEnc.Rows[i], ^uint32(0))
		}
		for i, tu := range got.Tuples {
			if !reflect.DeepEqual(tu.Values, want.Tuples[i].Values) || !reflect.DeepEqual(gotEnc.Rows[i], wantEnc.Rows[i]) {
				t.Fatalf("n=%d: appending to a neighbour rewrote tuple %d: %v %v", n, i, tu.Values, gotEnc.Rows[i])
			}
		}
	}
}
