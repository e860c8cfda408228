package interp

import (
	"fmt"
	"testing"

	"accv/internal/ast"
	"accv/internal/cfront"
	"accv/internal/compiler"
	"accv/internal/device"
	"accv/internal/mem"
)

// TestYieldDrawRule holds kernelState.draw to its rule over a mixed
// sequence of accesses: every access advances the lane's stream exactly as
// an unconditional draw would, an access to memory the lane's group owns
// never switches, and an access to any other memory switches if and only
// if a hit was drawn since the previous such access, this one included.
func TestYieldDrawRule(t *testing.T) {
	k := &kernelState{rng: 0x9e3779b97f4a7c15}
	k.group = &k.lane
	other := new(mem.Lane)
	owned := mem.NewBuffer(mem.KInt, 1, mem.Device, "owned")
	owned.Owner.Store(k.group)
	untagged := mem.NewBuffer(mem.KInt, 1, mem.Device, "untagged")
	theirs := mem.NewBuffer(mem.KInt, 1, mem.Device, "theirs")
	theirs.Owner.Store(other)

	ref := k.rng
	pending := false
	var ownedHits, bankedSwitches int
	for n := 0; n < 4000; n++ {
		// Runs of owned accesses of varying length between foreign ones.
		b := owned
		switch {
		case n%7 == 6:
			b = untagged
		case n%11 == 10:
			b = theirs
		}
		ref = ref*6364136223846793005 + 1442695040888963407
		hit := (ref>>33)&7 == 0
		got := k.draw(b)
		if k.rng != ref {
			t.Fatalf("access %d: stream %#x, want %#x", n, k.rng, ref)
		}
		if b == owned {
			if got {
				t.Fatalf("access %d: switched at owned memory", n)
			}
			if hit {
				ownedHits++
			}
			pending = pending || hit
			continue
		}
		if want := pending || hit; got != want {
			t.Fatalf("access %d: switch %v, want %v (banked %v, drawn %v)", n, got, want, pending, hit)
		}
		if got && !hit {
			bankedSwitches++
		}
		pending = false
	}
	if ownedHits == 0 || bankedSwitches == 0 {
		t.Fatalf("sequence never banked a hit and took it later (%d owned hits, %d banked switches)", ownedHits, bankedSwitches)
	}
}

// Owner classes __owner reports, as seen by the calling lane.
const (
	ownerNone    = 0 // untagged: any lane may reach it
	ownerSelf    = 1 // owned by the calling lane's group
	ownerAnother = 2 // owned by another lane group
)

// __owner(v) reports the owner class of v's buffer without evaluating v,
// so an array does not decay and nothing escapes.
func init() {
	mathBuiltinTable["__owner"] = func(c *execCtx, x *ast.CallExpr) (mem.Value, error) {
		id, ok := x.Args[0].(*ast.Ident)
		if !ok {
			return mem.Value{}, errf(x, "__owner takes a variable name")
		}
		v, ok := c.env.Lookup(id.Name)
		if !ok || c.kernel == nil {
			return mem.Value{}, errf(x, "__owner(%s) outside a kernel or of an undeclared variable", id.Name)
		}
		switch o := v.Buf.Owner.Load(); {
		case o == nil:
			return mem.Int(ownerNone), nil
		case o == c.kernel.group:
			return mem.Int(ownerSelf), nil
		}
		return mem.Int(ownerAnother), nil
	}
}

// TestOwnership runs one kernel per ownership rule under both engines and
// asks __owner, from inside the lane, who owns the variable: memory a lane
// creates belongs to its group, a lane on a goroutine of its own starts a
// group, and taken addresses, shared miscompiled privates and data-clause
// copies belong to no group.
func TestOwnership(t *testing.T) {
	for _, tc := range []struct {
		name      string
		construct string // compute construct and its clauses
		body      string
		share     bool // apply the SharePrivates miscompilation
		want      int64
	}{
		{"loop-body local", "parallel num_gangs(2) num_workers(4)",
			"#pragma acc loop gang worker\nfor (i = 0; i < 8; i++) { int t = i; r[0] = __owner(t); }", false, ownerSelf},
		{"kernel-code local", "parallel num_gangs(2)",
			"int t = 1; r[0] = __owner(t);", false, ownerSelf},
		{"induction variable", "parallel num_gangs(2) num_workers(4)",
			"#pragma acc loop gang worker\nfor (i = 0; i < 8; i++) r[0] = __owner(i);", false, ownerSelf},
		{"vector-lane private copy", "parallel num_gangs(2) vector_length(4)",
			"#pragma acc loop gang vector private(t)\nfor (i = 0; i < 8; i++) { t = i; r[0] = __owner(t); }", false, ownerSelf},
		{"worker reduction accumulator", "parallel num_gangs(2) num_workers(4)",
			"#pragma acc loop gang worker reduction(+:s)\nfor (i = 0; i < 8; i++) { s += i; r[0] = __owner(s); }", false, ownerSelf},
		{"gang reduction copy", "parallel num_gangs(2) reduction(+:s)",
			"s = 1; r[0] = __owner(s);", false, ownerSelf},
		{"gang firstprivate, 1 worker", "parallel num_gangs(2) num_workers(1) firstprivate(f)",
			"#pragma acc loop worker\nfor (i = 0; i < 8; i++) r[0] = __owner(f);", false, ownerSelf},
		{"gang firstprivate, 4 workers", "parallel num_gangs(2) num_workers(4) firstprivate(f)",
			"#pragma acc loop worker\nfor (i = 0; i < 8; i++) r[0] = __owner(f);", false, ownerAnother},
		{"gang private", "parallel num_gangs(2) private(t)",
			"t = 1; r[0] = __owner(t);", false, ownerSelf},
		{"shared private copies", "parallel num_gangs(2) private(t)",
			"t = 1; r[0] = __owner(t);", true, ownerNone},
		{"kernels gang loop", "kernels",
			"int t = 1;\n#pragma acc loop gang\nfor (i = 0; i < 8; i++) r[0] = __owner(t);", false, ownerAnother},
		{"address taken", "parallel num_gangs(2)",
			"int t = 0; int *p = &t; r[0] = __owner(t);", false, ownerNone},
		{"array indexed", "parallel num_gangs(2)",
			"int a[4]; a[1] = 2; r[0] = __owner(a);", false, ownerSelf},
		{"array decayed", "parallel num_gangs(2)",
			"int a[4]; int *q; q = a; r[0] = __owner(a);", false, ownerNone},
		{"array decayed in a loop body", "parallel num_gangs(2)",
			"int a[4]; int *q;\n#pragma acc loop gang\nfor (i = 0; i < 2; i++) { q = a; }\nr[0] = __owner(a);", false, ownerNone},
		{"data-clause copy", "parallel num_gangs(2) copy(s)",
			"s = 1; r[0] = __owner(s);", false, ownerNone},
		{"data-clause array", "parallel num_gangs(2)",
			"r[0] = __owner(r);", false, ownerNone},
	} {
		src := fmt.Sprintf(`
int acc_test() {
    int r[1];
    int i, t;
    int s = 0, f = 3;
    r[0] = -1;
    #pragma acc %s copy(r[0:1])
    {
        %s
    }
    return r[0];
}`, tc.construct, tc.body)
		prog, err := cfront.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		exe, _, err := compiler.Compile(prog, compiler.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		if tc.share {
			for _, r := range exe.Regions {
				r.SharePrivates = true
			}
		}
		for _, eng := range []Engine{EngineVM, EngineTree} {
			// The Cray mapping keeps the worker level (the default
			// mapping folds it away).
			plat := device.NewPlatform(device.Config{Mapping: device.MapGangBlockWorkerWarp}, 1)
			res := Run(exe, RunConfig{Engine: eng, Seed: 1, Platform: plat})
			if res.Err != nil {
				t.Fatalf("%s, %s engine: %v", tc.name, eng, res.Err)
			}
			if res.Exit != tc.want {
				t.Errorf("%s, %s engine: owner class %d, want %d", tc.name, eng, res.Exit, tc.want)
			}
		}
	}
}
