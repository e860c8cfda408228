package rt_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"accv/internal/mem"
	"accv/internal/rt"
)

func TestFlatIndex(t *testing.T) {
	c2 := &rt.VarInfo{Name: "m", Dims: []int{3, 4}}
	f2 := &rt.VarInfo{Name: "f", Dims: []int{3, 4}, Lower: []int{1, 0}}
	p := &rt.VarInfo{Name: "p", IsPtr: true}
	s := &rt.VarInfo{Name: "s"}
	for _, tc := range []struct {
		name string
		v    *rt.VarInfo
		idx  []int64
		want int
		err  string // substring of the expected error; "" for none
	}{
		{"first", c2, []int64{0, 0}, 0, ""},
		{"row major", c2, []int64{1, 2}, 6, ""},
		{"last", c2, []int64{2, 3}, 11, ""},
		{"row past the end", c2, []int64{3, 0}, 0, "index 3 out of range [0,3) in dimension 1 of m"},
		{"negative column", c2, []int64{0, -1}, 0, "index -1 out of range [0,4) in dimension 2 of m"},
		{"lower bound first", f2, []int64{1, 0}, 0, ""},
		{"lower bound last", f2, []int64{3, 3}, 11, ""},
		{"below the lower bound", f2, []int64{0, 0}, 0, "index 0 out of range [1,4) in dimension 1 of f"},
		{"too few subscripts", c2, []int64{1}, 0, "m has 2 dimensions, indexed with 1 subscripts"},
		// A pointer variable's subscript names its pointee, which the
		// engines resolve before they reach FlatIndex.
		{"pointer variable", p, []int64{5}, 0, "p has 0 dimensions, indexed with 1 subscripts"},
		{"subscripted scalar", s, []int64{0}, 0, "s has 0 dimensions, indexed with 1 subscripts"},
	} {
		got, err := tc.v.FlatIndex(tc.idx)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: got %d, %v; want error %q", tc.name, got, err, tc.err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%s: got %d, %v; want %d", tc.name, got, err, tc.want)
		}
	}
	if n := c2.Total(); n != 12 {
		t.Errorf("Total of a 3x4 array = %d, want 12", n)
	}
	if n := s.Total(); n != 1 {
		t.Errorf("Total of a scalar = %d, want 1", n)
	}
}

func TestEnvShadowing(t *testing.T) {
	outer := rt.NewEnv(nil)
	x := rt.NewScalar("x", mem.KInt, mem.Host)
	y := rt.NewScalar("y", mem.KF64, mem.Host)
	outer.Bind(x)
	outer.Bind(y)
	inner := rt.NewEnv(outer)
	x2 := rt.NewScalar("x", mem.KInt, mem.Device)
	inner.Bind(x2)

	if v, ok := inner.Lookup("x"); !ok || v != x2 {
		t.Error("an inner binding must shadow the outer one")
	}
	if v, ok := outer.Lookup("x"); !ok || v != x {
		t.Error("shadowing must not disturb the outer scope")
	}
	if v, ok := inner.Lookup("y"); !ok || v != y {
		t.Error("a name the inner scope lacks resolves in the outer one")
	}
	if _, ok := inner.Lookup("z"); ok {
		t.Error("an unbound name must not resolve")
	}
	inner.Bind(rt.NewScalar("z", mem.KInt, mem.Host))
	if _, ok := outer.Lookup("z"); ok {
		t.Error("an inner binding must not leak outward")
	}

	if inner.HasDeviceViews() {
		t.Error("no scope has device views yet")
	}
	outer.DeviceViews = map[string]mem.Ptr{"x": {Off: 3}}
	if pv, ok := inner.DeviceView("x"); !ok || pv.Off != 3 || !inner.HasDeviceViews() {
		t.Error("device views resolve through the scope chain")
	}
}

func TestRunCleanupOrder(t *testing.T) {
	env := rt.NewEnv(nil)
	var order []int
	e1, e3 := errors.New("cleanup 1"), errors.New("cleanup 3")
	env.AddCleanup(func() error { order = append(order, 1); return e1 })
	env.AddCleanup(func() error { order = append(order, 2); return nil })
	env.AddCleanup(func() error { order = append(order, 3); return e3 })
	if err := env.RunCleanup(); err != e3 {
		t.Errorf("want the first error in run order (cleanup 3), got %v", err)
	}
	if !reflect.DeepEqual(order, []int{3, 2, 1}) {
		t.Errorf("cleanups must run in reverse registration order, ran %v", order)
	}
	if err := env.RunCleanup(); err != nil || len(order) != 3 {
		t.Error("a second RunCleanup must run nothing")
	}
}
