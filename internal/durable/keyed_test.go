package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// testHeader and testEntry stand in for an artifact's header and entry
// types (dse checkpoints, the testcost cache).
type testHeader struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
}

type testEntry struct {
	N int     `json:"n"`
	F float64 `json:"f"`
	S string  `json:"s,omitempty"`
}

func mustEncode(t testing.TB, h testHeader, entries map[string]testEntry) []byte {
	t.Helper()
	data, err := EncodeKeyed(&h, entries)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEncodeKeyedLayout pins the layout: one compact header record,
// then one {"k","e"} record per entry in ascending key order.
func TestEncodeKeyedLayout(t *testing.T) {
	data := mustEncode(t, testHeader{Version: 1, Name: "x"}, map[string]testEntry{
		"b": {N: 2, F: 0.5},
		"a": {N: 1, S: "line\nbreak"},
	})
	payloads, _, torn := ScanRecords(data)
	if torn != nil {
		t.Fatal(torn)
	}
	want := []string{
		`{"version":1,"name":"x"}`,
		`{"k":"a","e":{"n":1,"f":0,"s":"line\nbreak"}}`,
		`{"k":"b","e":{"n":2,"f":0.5}}`,
	}
	if len(payloads) != len(want) {
		t.Fatalf("%d records, want %d:\n%s", len(payloads), len(want), data)
	}
	for i, p := range payloads {
		if string(p) != want[i] {
			t.Errorf("record %d = %s, want %s", i, p, want[i])
		}
	}
}

func TestDecodeKeyed(t *testing.T) {
	head := testHeader{Version: 1, Name: "cache"}
	three := map[string]testEntry{
		"alu/16/ripple": {N: 79, F: 0.9975},
		"cmp/16":        {N: 12, F: 1},
		"rf/8x1x1":      {N: 5, F: 0.25, S: "s"},
	}
	full := mustEncode(t, head, three)
	payloads, _, _ := ScanRecords(full)
	// Record boundaries: the header ends at ends[0], entry i at ends[i+1].
	var ends []int
	off := 0
	for _, p := range payloads {
		off += len(p) + trailerLen + 1
		ends = append(ends, off)
	}
	first := map[string]testEntry{"alu/16/ripple": three["alu/16/ripple"]}
	firstTwo := map[string]testEntry{"alu/16/ripple": three["alu/16/ripple"], "cmp/16": three["cmp/16"]}

	legacy, err := json.MarshalIndent(struct {
		testHeader
		Entries map[string]testEntry `json:"entries"`
	}{head, three}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), full...)
	flipped[ends[1]+3] ^= 0x01 // inside the second entry's payload
	badRecord := AppendRecord(append([]byte(nil), full[:ends[2]]...), []byte(`{"k":"x","e":`))
	// upper spells every trailer's digits in uppercase; nonHex ends the
	// second entry's trailer with a 'g' after seven good digits.
	upper := append([]byte(nil), full...)
	for _, end := range ends {
		digits := upper[end-9 : end-1]
		copy(digits, bytes.ToUpper(digits))
	}
	if bytes.Equal(upper, full) {
		t.Fatal("no trailer digit is a letter")
	}
	nonHex := append([]byte(nil), full...)
	nonHex[ends[2]-2] = 'g'
	// spaced frames an entry whose checksum starts with a zero digit and
	// turns that '0' into a space, a one-bit flip.
	var entry []byte
	for n := 0; len(entry) == 0 || Checksum(entry)>>28 != 0; n++ {
		entry = []byte(fmt.Sprintf(`{"k":"a","e":{"n":%d,"f":0}}`, n))
	}
	spaced := AppendRecord(append([]byte(nil), full[:ends[0]]...), entry)
	spaced[ends[0]+len(entry)+len(trailerMark)] = ' '

	for _, tc := range []struct {
		name    string
		data    []byte
		want    map[string]testEntry
		rec     Recovery
		cause   string // substring of rec.Cause
		wantErr string // substring of the error; "" for none
	}{
		{name: "round trip", data: full, want: three},
		{name: "round trip, no entries", data: mustEncode(t, head, nil), want: map[string]testEntry{}},
		{name: "round trip, empty map", data: mustEncode(t, head, map[string]testEntry{}), want: map[string]testEntry{}},
		{name: "header only", data: full[:ends[0]], want: map[string]testEntry{}},
		{name: "legacy whole document", data: append(legacy, '\n'), want: three, rec: Recovery{Legacy: true}},
		{name: "legacy without entries", data: []byte(`{"version":1,"name":"cache"}`), rec: Recovery{Legacy: true}},
		{name: "torn tail", data: full[:len(full)-3], want: firstTwo, rec: Recovery{Torn: true}, cause: "no newline"},
		{name: "torn at a record boundary", data: full[:ends[2]], want: firstTwo},
		{name: "crc flip", data: flipped, want: first, rec: Recovery{Torn: true, CRCFail: true}, cause: "crc mismatch"},
		{name: "uppercase trailer digits", data: upper, want: three},
		{name: "non-hex trailer digit", data: nonHex, want: first, rec: Recovery{Torn: true}, cause: "no trailer"},
		{name: "space for a trailer's leading zero", data: spaced, want: map[string]testEntry{}, rec: Recovery{Torn: true}, cause: "no trailer"},
		{name: "unparseable record after valid ones", data: badRecord, want: firstTwo, rec: Recovery{Torn: true}, cause: "unparseable entry record"},
		{name: "unparseable legacy document", data: []byte(`{"version":`), rec: Recovery{Legacy: true}, wantErr: "unexpected end"},
		{name: "no intact record", data: append([]byte(`{"version":1} #c=00000000`), '\n'), rec: Recovery{Torn: true, CRCFail: true}, cause: "crc mismatch", wantErr: "no intact record"},
		{name: "unparseable header record", data: AppendRecord(nil, []byte(`[1]`)), wantErr: "header record"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h testHeader
			got, rec, err := DecodeKeyed[testEntry](tc.data, &h)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				if got != nil {
					t.Fatalf("failed decode returned entries %v", got)
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				if h != head {
					t.Fatalf("header = %+v, want %+v", h, head)
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("entries = %v, want %v", got, tc.want)
				}
			}
			if !strings.Contains(rec.Cause, tc.cause) {
				t.Fatalf("cause %q, want one containing %q", rec.Cause, tc.cause)
			}
			rec.Cause = ""
			if rec != tc.rec {
				t.Fatalf("recovery = %+v, want %+v", rec, tc.rec)
			}
		})
	}
}

// fuzzEntries derives a keyed map from data: at most 4 entries (the
// prefix sweep decodes every byte prefix of their encoding), each key
// the valid-UTF-8 form of up to 6 bytes (control characters, quotes and
// the trailer mark included), each value from the 8 bytes after its key.
func fuzzEntries(data []byte) map[string]testEntry {
	m := make(map[string]testEntry)
	for len(data) > 0 && len(m) < 4 {
		n := min(1+int(data[0])%6, len(data)-1)
		key := strings.ToValidUTF8(string(data[1:1+n]), "?")
		data = data[1+n:]
		var v [8]byte
		data = data[copy(v[:], data):]
		f := math.Float64frombits(binary.LittleEndian.Uint64(v[:]))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = 0
		}
		m[key] = testEntry{N: int(int32(binary.LittleEndian.Uint32(v[:]))), F: f}
	}
	return m
}

// FuzzDecodeKeyed: arbitrary bytes never panic the decoder; the full
// encoding of a map derived from the input decodes back to that map;
// and every byte prefix of that encoding decodes, when it decodes at
// all, to a subset of the map's entries with equal values.
func FuzzDecodeKeyed(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x02ab12345678\x05 #c=\n\"\\xyzw"))
	f.Add(mustEncode(f, testHeader{Version: 1, Name: "seed"}, map[string]testEntry{"a": {N: 1, F: 2.5}}))
	f.Add([]byte(`{"version":1,"name":"legacy","entries":{"a":{"n":1,"f":2.5}}}`))
	f.Add([]byte("{\"x\":1} #c=00000000\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h testHeader
		if got, _, err := DecodeKeyed[testEntry](data, &h); err != nil && got != nil {
			t.Fatalf("failed decode returned entries: %v", err)
		}

		want := fuzzEntries(data)
		head := testHeader{Version: len(want), Name: strings.ToValidUTF8(string(data[:min(len(data), 12)]), "?")}
		enc := mustEncode(t, head, want)
		var fh testHeader
		got, rec, err := DecodeKeyed[testEntry](enc, &fh)
		if err != nil || rec != (Recovery{}) {
			t.Fatalf("full encoding: err %v, recovery %+v", err, rec)
		}
		if fh != head || !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: header %+v entries %v, want %+v %v", fh, got, head, want)
		}
		for cut := 0; cut < len(enc); cut++ {
			var ph testHeader
			got, _, err := DecodeKeyed[testEntry](enc[:cut], &ph)
			if err != nil {
				continue
			}
			for k, v := range got {
				if w, ok := want[k]; !ok || w != v {
					t.Fatalf("prefix %d: entry %q = %+v, want %+v (present %v)", cut, k, v, w, ok)
				}
			}
		}
	})
}
