package core

import "testing"

func TestMetricsGroupFansOut(t *testing.T) {
	a := &recordMetric{}
	b := &recordMetric{}
	g := NewMetricsGroup(a, b)
	if g.Prefix() != "composite" {
		t.Fatalf("prefix %q", g.Prefix())
	}
	in := FromFloat32s([]float32{1, 2})
	out := NewBytes([]byte{1})
	g.BeginCompress(in)
	g.EndCompress(in, out, nil)
	g.BeginDecompress(out)
	g.EndDecompress(out, in, nil)
	if a.begins != 2 || b.begins != 2 || a.ends != 2 || b.ends != 2 {
		t.Fatalf("fan-out: a=%d/%d b=%d/%d", a.begins, a.ends, b.begins, b.ends)
	}
	// Results merge (both members share the record: prefix; the merged map
	// keeps one entry, which is still a successful merge).
	res := g.Results()
	if v, err := res.GetInt32("record:begins"); err != nil || v != 2 {
		t.Fatalf("merged results: %v %v", v, err)
	}
	if len(g.Members()) != 2 {
		t.Fatal("members lost")
	}
}

func TestMetricsGroupCloneIsolates(t *testing.T) {
	a := &recordMetric{}
	g := NewMetricsGroup(a)
	g.BeginCompress(FromFloat32s([]float32{1}))
	clone := g.Clone().(*MetricsGroup)
	if clone.Members()[0].(*recordMetric).begins != 0 {
		t.Fatal("clone inherited member state")
	}
}

func TestMetricsGroupSetOptionsForwards(t *testing.T) {
	a := &recordMetric{}
	g := NewMetricsGroup(a)
	if err := g.Opts().Set(NewOptions().SetValue("x", int32(1))); err != nil {
		t.Fatal(err)
	}
	if g.Opts().Options() == nil {
		t.Fatal("options nil")
	}
}
