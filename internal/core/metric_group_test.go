package core

import (
	"errors"
	"testing"
)

// probeMetric is a configurable member for MetricsGroup tests: it records
// every hook call (including the error values the wrapper passed through),
// reports results under its own prefix, and can be made to fail SetOptions.
type probeMetric struct {
	NoOptions
	prefix     string
	begins     int
	ends       int
	hookErrs   []error
	setErr     error
	setCalls   int
	cloneCount int
}

func (m *probeMetric) Prefix() string         { return m.prefix }
func (m *probeMetric) BeginCompress(in *Data) { m.begins++ }
func (m *probeMetric) EndCompress(in, out *Data, err error) {
	m.ends++
	m.hookErrs = append(m.hookErrs, err)
}
func (m *probeMetric) BeginDecompress(in *Data) { m.begins++ }
func (m *probeMetric) EndDecompress(in, out *Data, err error) {
	m.ends++
	m.hookErrs = append(m.hookErrs, err)
}

func (m *probeMetric) SetOptions(*Options) error {
	m.setCalls++
	return m.setErr
}

func (m *probeMetric) Results() *Options {
	return NewOptions().
		SetValue(m.prefix+":begins", int32(m.begins)).
		SetValue("shared:winner", m.prefix)
}

func (m *probeMetric) Clone() Metric {
	m.cloneCount++
	return &probeMetric{prefix: m.prefix, setErr: m.setErr}
}

// TestMetricsGroupCloneIndependence checks both directions: state the group
// accumulates before cloning must not appear in the clone, and hooks run on
// the clone must not leak back into the original members.
func TestMetricsGroupCloneIndependence(t *testing.T) {
	a := &probeMetric{prefix: "a"}
	b := &probeMetric{prefix: "b"}
	g := NewMetricsGroup(a, b)

	in := FromFloat32s([]float32{1, 2, 3})
	out := NewBytes([]byte{9})
	g.BeginCompress(in)
	g.EndCompress(in, out, nil)

	clone := g.Clone().(*MetricsGroup)
	if got := len(clone.Members()); got != 2 {
		t.Fatalf("clone has %d members, want 2", got)
	}
	for i, m := range clone.Members() {
		pm := m.(*probeMetric)
		if pm.begins != 0 || pm.ends != 0 {
			t.Fatalf("clone member %d inherited state: begins=%d ends=%d", i, pm.begins, pm.ends)
		}
		if pm == g.Members()[i].(*probeMetric) {
			t.Fatalf("clone member %d aliases the original", i)
		}
	}

	// Drive the clone; the originals must stay where they were.
	clone.BeginDecompress(out)
	clone.EndDecompress(out, in, nil)
	if a.begins != 1 || a.ends != 1 || b.begins != 1 || b.ends != 1 {
		t.Fatalf("clone hooks leaked into originals: a=%d/%d b=%d/%d",
			a.begins, a.ends, b.begins, b.ends)
	}
	if c := clone.Members()[0].(*probeMetric); c.begins != 1 || c.ends != 1 {
		t.Fatalf("clone did not record its own hooks: %d/%d", c.begins, c.ends)
	}
}

// TestMetricsGroupResultsMergeOrdering pins the merge contract: members are
// merged in composition order, so on a key collision the later member wins,
// while distinct prefixes all survive.
func TestMetricsGroupResultsMergeOrdering(t *testing.T) {
	a := &probeMetric{prefix: "a"}
	b := &probeMetric{prefix: "b"}
	g := NewMetricsGroup(a, b)
	g.BeginCompress(FromFloat32s([]float32{1}))
	// Drive one member directly so the two report different values and the
	// merged map provably kept both prefixes.
	a.BeginCompress(nil)

	res := g.Results()
	if v, err := res.GetInt32("a:begins"); err != nil || v != 2 {
		t.Fatalf("a:begins = %d (%v)", v, err)
	}
	if v, err := res.GetInt32("b:begins"); err != nil || v != 1 {
		t.Fatalf("b:begins = %d (%v)", v, err)
	}
	// Both members write "shared:winner"; composition order says b wins.
	if v, err := res.GetString("shared:winner"); err != nil || v != "b" {
		t.Fatalf("shared:winner = %q (%v), want \"b\"", v, err)
	}

	// Reversing the composition reverses the collision winner.
	rev := NewMetricsGroup(b, a).Results()
	if v, err := rev.GetString("shared:winner"); err != nil || v != "a" {
		t.Fatalf("reversed shared:winner = %q (%v), want \"a\"", v, err)
	}
}

// TestMetricsGroupHookFanOutOnError checks two error paths: a compression
// error passed to End hooks reaches every member verbatim, and a member
// whose SetOptions fails stops the forwarding loop with its error.
func TestMetricsGroupHookFanOutOnError(t *testing.T) {
	a := &probeMetric{prefix: "a"}
	b := &probeMetric{prefix: "b"}
	c := &probeMetric{prefix: "c"}
	g := NewMetricsGroup(a, b, c)

	in := FromFloat32s([]float32{1})
	wantErr := errors.New("codec exploded")
	g.BeginCompress(in)
	g.EndCompress(in, nil, wantErr)
	for _, m := range []*probeMetric{a, b, c} {
		if m.begins != 1 || m.ends != 1 {
			t.Fatalf("member %s missed hooks: begins=%d ends=%d", m.prefix, m.begins, m.ends)
		}
		if len(m.hookErrs) != 1 || !errors.Is(m.hookErrs[0], wantErr) {
			t.Fatalf("member %s did not observe the compression error: %v", m.prefix, m.hookErrs)
		}
	}

	// SetOptions: the failing member's error surfaces and later members are
	// not configured (fail-fast forwarding).
	b.setErr = errors.New("bad option")
	err := g.SetOptions(NewOptions().SetValue("x", int32(1)))
	if !errors.Is(err, b.setErr) {
		t.Fatalf("SetOptions error = %v, want %v", err, b.setErr)
	}
	if a.setCalls != 1 || b.setCalls != 1 || c.setCalls != 0 {
		t.Fatalf("fail-fast forwarding broken: a=%d b=%d c=%d",
			a.setCalls, b.setCalls, c.setCalls)
	}
}
