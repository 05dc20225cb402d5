package jobspec

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestZeroSpecValidates(t *testing.T) {
	var s Spec
	if err := s.Validate(); err != nil {
		t.Fatalf("zero spec must validate (it is the default study): %v", err)
	}
}

// TestIgnoredSpecFields pins lane_width and atpg_workers as no-ops: a
// body carrying any value still decodes, validates and hashes as if the
// field were absent.
func TestIgnoredSpecFields(t *testing.T) {
	for _, body := range []string{
		`{"lane_width":256}`, `{"lane_width":128}`, `{"lane_width":-64}`,
		`{"atpg_workers":2}`, `{"atpg_workers":-1}`,
	} {
		var s Spec
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", body, err)
		}
		if got, want := s.Hash(), (Spec{}).Hash(); got != want {
			t.Errorf("%s: Hash() = %q, want the zero spec's %q", body, got, want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		s    Spec
		want string
	}{
		{"workload", Spec{Workload: "doom"}, "unknown workload"},
		{"norm", Spec{Norm: "cosine"}, "unknown norm"},
		{"policy", Spec{DegradedPolicy: "maybe"}, "unknown degraded policy"},
		{"width", Spec{Width: -1}, "width"},
		{"seed", Spec{Seed: -2}, "seed"},
		{"weights", Spec{WA: -1}, "non-negative"},
		{"penalty", Spec{DegradedPenalty: 0.5}, "penalty"},
		{"timeout", Spec{Timeout: -1}, "timeout"},
		{"atpg-deadline", Spec{ATPGDeadline: -1}, "atpg_deadline"},
		{"parallelism", Spec{Parallelism: -1}, "parallelism"},
		{"buses", Spec{Buses: []int{1, 0}}, "buses"},
		{"alus", Spec{ALUs: []int{-3}}, "alus"},
		{"cmps", Spec{CMPs: []int{2, 0}}, "cmps"},
		{"search-pop", Spec{Search: &SearchSpec{Population: -1}}, "search"},
		{"search-gens", Spec{Search: &SearchSpec{Generations: -1}}, "search"},
		{"search-eta-negative", Spec{Search: &SearchSpec{Eta: -1}}, "search"},
		{"search-eta-one", Spec{Search: &SearchSpec{Eta: 1}}, "eta 1"},
		{"search-seed", Spec{Search: &SearchSpec{Seed: -4}}, "search seed"},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.s)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := Spec{
		Workload:        "crc16",
		Width:           16,
		Seed:            7,
		Buses:           []int{1, 2},
		ALUs:            []int{1},
		CMPs:            []int{1, 2},
		Norm:            "manhattan",
		WA:              2,
		WT:              1,
		WC:              0.5,
		DegradedPolicy:  "penalize",
		DegradedPenalty: 3,
		Cache:           "/tmp/ann.json",
		Checkpoint:      "/tmp/ck.json",
		Timeout:         Duration(90 * time.Second),
		ATPGDeadline:    Duration(250 * time.Millisecond),
		Parallelism:     4,
		ATPGWorkers:     2,
		LaneWidth:       256,
		VerifySelected:  true,
		Search:          &SearchSpec{Population: 128, Generations: 10, Eta: 4, Seed: 42},
	}
	data, err := json.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out Spec
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the spec:\n in: %+v\nout: %+v", in, out)
	}
	// Second hop must be byte-stable (the daemon echoes specs back).
	data2, err := json.Marshal(&out)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("re-encoding changed bytes:\n%s\n%s", data, data2)
	}
}

func TestDurationForms(t *testing.T) {
	var s Spec
	if err := json.Unmarshal([]byte(`{"timeout":"1m30s","atpg_deadline":1500000}`), &s); err != nil {
		t.Fatal(err)
	}
	if s.Timeout.Std() != 90*time.Second {
		t.Errorf("string duration: got %v", s.Timeout.Std())
	}
	if s.ATPGDeadline.Std() != 1500*time.Microsecond {
		t.Errorf("numeric duration: got %v", s.ATPGDeadline.Std())
	}
	if err := json.Unmarshal([]byte(`{"timeout":"fast"}`), &s); err == nil {
		t.Error("invalid duration string accepted")
	}
	if err := json.Unmarshal([]byte(`{"timeout":true}`), &s); err == nil {
		t.Error("boolean duration accepted")
	}
}

func TestZeroSpecMarshalsEmpty(t *testing.T) {
	data, err := json.Marshal(&Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{}" {
		t.Fatalf("zero spec must serialize to {} (all fields omitempty), got %s", data)
	}
}

func TestNormalize(t *testing.T) {
	s := Spec{Buses: []int{4, 1, 4, 2}, ALUs: []int{3, 3}, CMPs: nil}
	s.Normalize()
	if !reflect.DeepEqual(s.Buses, []int{1, 2, 4}) || !reflect.DeepEqual(s.ALUs, []int{3}) || s.CMPs != nil {
		t.Fatalf("normalize: %+v", s)
	}
	s.Normalize() // idempotent
	if !reflect.DeepEqual(s.Buses, []int{1, 2, 4}) {
		t.Fatalf("normalize not idempotent: %+v", s)
	}
}

// TestNormalizeLeavesCallerArrays: a spec whose lists alias a caller's
// arrays gets fresh sorted lists, and the caller's arrays keep their
// order — a running job and its submitter may share them.
func TestNormalizeLeavesCallerArrays(t *testing.T) {
	buses, alus := []int{4, 1, 4, 2}, []int{3, 3, 1}
	s := Spec{Buses: buses, ALUs: alus[:2]}
	s.Normalize()
	if !reflect.DeepEqual(buses, []int{4, 1, 4, 2}) || !reflect.DeepEqual(alus, []int{3, 3, 1}) {
		t.Fatalf("Normalize reordered the caller's arrays: buses %v, alus %v", buses, alus)
	}
	if !reflect.DeepEqual(s.Buses, []int{1, 2, 4}) || !reflect.DeepEqual(s.ALUs, []int{3}) {
		t.Fatalf("normalized lists: buses %v, alus %v", s.Buses, s.ALUs)
	}
}

func TestHashIgnoresTopology(t *testing.T) {
	base := Spec{Workload: "crc16", Buses: []int{1, 2}, ALUs: []int{1}, Norm: "manhattan"}
	want := base.Hash()
	if len(want) != 16 {
		t.Fatalf("hash %q, want 16 hex chars", want)
	}
	same := []Spec{
		{Workload: "crc16", Buses: []int{2, 1, 2}, ALUs: []int{1}, Norm: "manhattan"}, // normalization
		func() Spec { s := base; s.Parallelism = 7; return s }(),
		func() Spec { s := base; s.ATPGWorkers = 3; return s }(),
		func() Spec { s := base; s.LaneWidth = 512; return s }(),
		func() Spec { s := base; s.Cache = "/tmp/x"; s.Checkpoint = "/tmp/y"; return s }(),
		func() Spec { s := base; s.Timeout = Duration(time.Minute); return s }(),
	}
	for i, s := range same {
		if got := s.Hash(); got != want {
			t.Errorf("variant %d: hash %q != base %q (topology must not change result identity)", i, got, want)
		}
	}
	diff := []Spec{
		{Workload: "vecmax", Buses: []int{1, 2}, ALUs: []int{1}, Norm: "manhattan"},
		func() Spec { s := base; s.ATPGDeadline = Duration(time.Millisecond); return s }(),
		func() Spec { s := base; s.Search = &SearchSpec{Population: 10}; return s }(),
		func() Spec { s := base; s.VerifySelected = true; return s }(),
	}
	for i, s := range diff {
		if got := s.Hash(); got == want {
			t.Errorf("variant %d: hash collided with base (field must be result-significant)", i)
		}
	}
	// Hash must not mutate the caller's spec (Normalize works on copies).
	s := Spec{Buses: []int{3, 1}}
	s.Hash()
	if !reflect.DeepEqual(s.Buses, []int{3, 1}) {
		t.Fatalf("Hash mutated the spec: %v", s.Buses)
	}
}

func TestAnnotatorKey(t *testing.T) {
	var a, b Spec
	b.Width, b.Seed = 16, 7
	if a.AnnotatorKey() != b.AnnotatorKey() {
		t.Errorf("default key %q != explicit-default key %q", a.AnnotatorKey(), b.AnnotatorKey())
	}
	c := Spec{ATPGDeadline: Duration(time.Millisecond)}
	if c.AnnotatorKey() == a.AnnotatorKey() {
		t.Error("budgeted and unbudgeted specs must not share an annotator")
	}
	d := Spec{Width: 8}
	if d.AnnotatorKey() == a.AnnotatorKey() {
		t.Error("different widths must not share an annotator")
	}
}

// TestHashGolden pins Spec.Hash for a few specs. The hash names daemon
// checkpoint files and fills their spec_hash binding, so a moved value
// would orphan every checkpoint written before the move: any change to
// the Spec fields or to the hash inputs must leave these literals alone.
func TestHashGolden(t *testing.T) {
	cases := []struct {
		name string
		s    Spec
		want string
	}{
		{"zero", Spec{}, "44136fa355b3678a"},
		{"crc16-manhattan-buses", Spec{Workload: "crc16", Norm: "manhattan", Buses: []int{2, 1}, ALUs: []int{1}, CMPs: []int{1, 2}}, "78c2478a415cc016"},
		{"search", Spec{Search: &SearchSpec{Population: 512, Generations: 4, Eta: 4, Seed: 11}}, "fc7b202673766867"},
		{"atpg-deadline", Spec{ATPGDeadline: Duration(5 * time.Millisecond)}, "362d7d79a627ad6a"},
		{"throughput-and-io", Spec{
			Parallelism: 4, ATPGWorkers: 2, LaneWidth: 256,
			Cache: "/var/cache/ann.cache", Checkpoint: "/var/lib/ck.ckpt",
			Timeout: Duration(90 * time.Second),
		}, "44136fa355b3678a"},
	}
	for _, tc := range cases {
		if got := tc.s.Hash(); got != tc.want {
			t.Errorf("%s: Hash() = %q, want %q", tc.name, got, tc.want)
		}
	}
}
