package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSetAddGet(t *testing.T) {
	s := NewSet("test")
	if got := s.Get("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
	s.Add("a", 5)
	s.Inc("a")
	if got := s.Get("a"); got != 6 {
		t.Fatalf("a = %d, want 6", got)
	}
	if s.Name() != "test" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestSetKeysSorted(t *testing.T) {
	s := NewSet("t")
	for _, k := range []string{"zeta", "alpha", "mid"} {
		s.Inc(k)
	}
	keys := s.Keys()
	want := []string{"alpha", "mid", "zeta"}
	for i, k := range want {
		if keys[i] != k {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

func TestSetMerge(t *testing.T) {
	a, b := NewSet("a"), NewSet("b")
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 3)
	a.Merge(b)
	if a.Get("x") != 3 || a.Get("y") != 3 {
		t.Fatalf("merge gave x=%d y=%d", a.Get("x"), a.Get("y"))
	}
}

func TestSetReset(t *testing.T) {
	s := NewSet("t")
	s.Add("x", 9)
	s.Reset()
	if s.Get("x") != 0 || len(s.Keys()) != 0 {
		t.Fatal("reset did not clear counters")
	}
}

func TestSetString(t *testing.T) {
	s := NewSet("nm")
	s.Add("b", 2)
	s.Add("a", 1)
	if got := s.String(); got != "nm{a=1 b=2}" {
		t.Fatalf("String() = %q", got)
	}
	if d := s.Dump("  "); !strings.Contains(d, "a") || !strings.Contains(d, "b") {
		t.Fatalf("Dump missing keys: %q", d)
	}
}

func TestDistribution(t *testing.T) {
	var d Distribution
	if d.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
	for _, v := range []int64{5, 1, 9} {
		d.Observe(v)
	}
	if d.Min != 1 || d.Max != 9 || d.Count != 3 || d.Sum != 15 {
		t.Fatalf("distribution = %+v", d)
	}
	if d.Mean() != 5 {
		t.Fatalf("mean = %f", d.Mean())
	}
	if s := d.String(); !strings.Contains(s, "n=3") {
		t.Fatalf("String() = %q", s)
	}
}

// Property: merging two sets yields the per-key sum for every key.
func TestSetMergeProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := NewSet("a"), NewSet("b")
		keys := []string{"k0", "k1", "k2", "k3"}
		for _, x := range xs {
			a.Add(keys[int(x)%len(keys)], int64(x))
		}
		for _, y := range ys {
			b.Add(keys[int(y)%len(keys)], int64(y))
		}
		want := map[string]int64{}
		for _, k := range keys {
			want[k] = a.Get(k) + b.Get(k)
		}
		a.Merge(b)
		for _, k := range keys {
			if a.Get(k) != want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeriesBuckets(t *testing.T) {
	ts := NewTimeSeries(10)
	ts.Record(0.0, 5)
	ts.Record(0.05, 5)
	ts.Record(0.95, 7)
	ts.Record(1.5, 3)  // clamps to last bucket
	ts.Record(-0.5, 2) // clamps to first bucket
	if got := ts.Bucket(0); got != 12 {
		t.Fatalf("bucket 0 = %d, want 12", got)
	}
	if got := ts.Bucket(9); got != 10 {
		t.Fatalf("bucket 9 = %d, want 10", got)
	}
	if ts.Total() != 22 {
		t.Fatalf("total = %d", ts.Total())
	}
	if ts.Peak() != 12 {
		t.Fatalf("peak = %d", ts.Peak())
	}
	if ts.Len() != 10 {
		t.Fatalf("len = %d", ts.Len())
	}
}

func TestTimeSeriesBandwidth(t *testing.T) {
	ts := NewTimeSeries(4)
	ts.Tick(0.1, 100)
	ts.Record(0.1, 200)
	if bw := ts.Bandwidth(0); bw != 2.0 {
		t.Fatalf("bandwidth = %f, want 2", bw)
	}
	// 2 bytes/cycle at 1 GHz = 2 GB/s.
	if gbs := ts.BandwidthGBs(0, 1e9); gbs != 2.0 {
		t.Fatalf("GB/s = %f", gbs)
	}
	if bw := ts.Bandwidth(3); bw != 0 {
		t.Fatalf("empty bucket bandwidth = %f", bw)
	}
	// Ticks never move backwards.
	ts.Tick(0.1, 50)
	if ts.Cycles(0) != 100 {
		t.Fatalf("cycles = %d after backwards tick", ts.Cycles(0))
	}
}

func TestTimeSeriesSparkline(t *testing.T) {
	ts := NewTimeSeries(3)
	if s := ts.Sparkline(); len([]rune(s)) != 3 {
		t.Fatalf("empty sparkline = %q", s)
	}
	ts.Record(0.0, 1)
	ts.Record(0.5, 100)
	if s := ts.Sparkline(); len([]rune(s)) != 3 {
		t.Fatalf("sparkline = %q", s)
	}
	if ts.String() == "" {
		t.Fatal("String() empty")
	}
}

func TestTimeSeriesZeroBuckets(t *testing.T) {
	ts := NewTimeSeries(0) // degenerate: clamps to one bucket
	ts.Record(0.5, 4)
	if ts.Total() != 4 {
		t.Fatalf("total = %d", ts.Total())
	}
}

// Table-driven Merge coverage: the empty side must never contribute its
// zero-valued Min/Max to the merged distribution.
func TestDistributionMerge(t *testing.T) {
	obs := func(vs ...int64) Distribution {
		var d Distribution
		for _, v := range vs {
			d.Observe(v)
		}
		return d
	}
	cases := []struct {
		name string
		a, b Distribution
		want Distribution
	}{
		{"empty-empty", Distribution{}, Distribution{}, Distribution{}},
		{"empty-nonempty", Distribution{}, obs(5, 1, 9), obs(5, 1, 9)},
		{"nonempty-empty", obs(5, 1, 9), Distribution{}, obs(5, 1, 9)},
		{"both-nonempty", obs(5, 9), obs(2, 30), obs(5, 9, 2, 30)},
		{"negatives", obs(-4, -2), obs(-10), obs(-4, -2, -10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.a
			got.Merge(&tc.b)
			if got != tc.want {
				t.Fatalf("merge = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// Merging N per-cell distributions in cell order must equal observing the
// concatenated stream, regardless of which cells are empty.
func TestDistributionMergeEqualsSerial(t *testing.T) {
	streams := [][]int64{{7, 3}, {}, {42}, {}, {1, 100, 5}}
	var serial, merged Distribution
	for _, s := range streams {
		var cell Distribution
		for _, v := range s {
			serial.Observe(v)
			cell.Observe(v)
		}
		merged.Merge(&cell)
	}
	if merged != serial {
		t.Fatalf("merged = %+v, serial = %+v", merged, serial)
	}
}

func TestDistributionStringEmpty(t *testing.T) {
	var d Distribution
	if got := d.String(); got != "n=0 (empty)" {
		t.Fatalf("empty String() = %q, want %q", got, "n=0 (empty)")
	}
	d.Observe(0)
	if got := d.String(); got != "n=1 min=0 max=0 mean=0.00" {
		t.Fatalf("zero-sample String() = %q", got)
	}
}

func TestCounterHandleTouchSemantics(t *testing.T) {
	s := NewSet("t")
	c := s.Counter("k")
	if len(s.Keys()) != 0 || s.String() != "t{}" {
		t.Fatalf("an untouched handle must not appear: keys=%v", s.Keys())
	}
	if s.Counter("k") != c {
		t.Fatal("Counter must return the same handle for a key")
	}
	c.Add(0)
	s.Add("j", 0)
	if got := strings.Join(s.Keys(), ","); got != "j,k" {
		t.Fatalf("Add of zero must touch: keys=%q", got)
	}
	c.Inc()
	c.Add(4)
	if s.Get("k") != 5 || c.Value() != 5 {
		t.Fatalf("k = %d via Get, %d via handle", s.Get("k"), c.Value())
	}
	s.Reset()
	if len(s.Keys()) != 0 || s.Get("k") != 0 || c.Value() != 0 {
		t.Fatalf("Reset left keys=%v k=%d", s.Keys(), s.Get("k"))
	}
	c.Inc()
	if got := strings.Join(s.Keys(), ","); got != "k" || s.Get("k") != 1 {
		t.Fatalf("handle dead after Reset: keys=%q k=%d", got, s.Get("k"))
	}
}

func TestCounterHandlesRenderLikeStringKeys(t *testing.T) {
	byKey, byHandle := NewSet("s"), NewSet("s")
	byKey.Add("zero", 0)
	byKey.Add("b", 7)
	byKey.Inc("a")
	idle := byHandle.Counter("idle") // registered, never touched
	byHandle.Counter("a").Inc()
	byHandle.Counter("b").Add(7)
	byHandle.Counter("zero").Add(0)
	if byKey.String() != byHandle.String() || byKey.Dump("  ") != byHandle.Dump("  ") {
		t.Fatalf("String/Dump differ:\n%s\n%s", byKey.Dump("  "), byHandle.Dump("  "))
	}
	if got := byHandle.String(); got != "s{a=1 b=7 zero=0}" {
		t.Fatalf("String() = %q", got)
	}
	m := NewSet("m")
	m.Merge(byHandle)
	if m.Dump("") != byKey.Dump("") || m.Get("idle") != 0 || idle.Value() != 0 {
		t.Fatalf("Merge result:\n%s", m.Dump(""))
	}
	for _, k := range m.Keys() {
		if k == "idle" {
			t.Fatal("Merge copied an untouched counter")
		}
	}
}

func TestCounterHandlesShareBlocks(t *testing.T) {
	s := NewSet("t")
	handles := make([]*Counter, 3*counterBlock)
	for i := range handles {
		handles[i] = s.Counter(string(rune('A' + i)))
	}
	for i, c := range handles {
		c.Add(int64(i))
	}
	for i := range handles {
		if got := s.Get(string(rune('A' + i))); got != int64(i) {
			t.Fatalf("counter %d = %d: handles alias", i, got)
		}
	}
	c := s.Counter("hot")
	if n := testing.AllocsPerRun(100, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Fatalf("handle increments allocate %.1f times", n)
	}
}
