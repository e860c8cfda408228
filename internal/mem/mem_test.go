package mem

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndTruth(t *testing.T) {
	if !Int(3).Truth() || Int(0).Truth() {
		t.Error("int truth broken")
	}
	if !F64(0.5).Truth() || F64(0).Truth() {
		t.Error("float truth broken")
	}
	if PtrVal(Ptr{}).Truth() {
		t.Error("nil pointer must be false")
	}
	b := NewBuffer(KInt, 1, Host, "x")
	if !PtrVal(Ptr{Buf: b}).Truth() {
		t.Error("non-nil pointer must be true")
	}
	if !Bool(true).Equal(Int(1)) || !Bool(false).Equal(Int(0)) {
		t.Error("Bool mapping broken")
	}
}

func TestConvertRules(t *testing.T) {
	if v := F64(3.9).Convert(KInt); v.I != 3 {
		t.Errorf("C truncation: got %d, want 3", v.I)
	}
	if v := F64(-3.9).Convert(KInt); v.I != -3 {
		t.Errorf("C truncation toward zero: got %d, want -3", v.I)
	}
	if v := Int(7).Convert(KF32); v.F != 7 || v.K != KF32 {
		t.Errorf("int→float: got %v", v)
	}
	// float32 rounding: 1/3 cannot be represented exactly.
	v := F64(1.0 / 3.0).Convert(KF32)
	if v.F == 1.0/3.0 {
		t.Error("KF32 conversion must round to float32 precision")
	}
	if v.F != float64(float32(1.0/3.0)) {
		t.Error("KF32 conversion must equal float32 rounding")
	}
}

// Property: converting to a kind then to itself is idempotent.
func TestConvertIdempotent(t *testing.T) {
	f := func(x float64, toInt bool) bool {
		if math.IsNaN(x) {
			return true
		}
		k := KF32
		if toInt {
			k = KInt
		}
		once := F64(x).Convert(k)
		twice := once.Convert(k)
		return once.Equal(twice)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBufferBounds(t *testing.T) {
	b := NewBuffer(KInt, 4, Host, "a")
	if _, err := b.Load(4); err == nil {
		t.Error("load out of range must fail")
	}
	if _, err := b.Load(-1); err == nil {
		t.Error("negative load must fail")
	}
	if err := b.Store(4, Int(1)); err == nil {
		t.Error("store out of range must fail")
	}
	if err := b.Store(2, Int(9)); err != nil {
		t.Fatal(err)
	}
	v, err := b.Load(2)
	if err != nil || v.I != 9 {
		t.Fatalf("roundtrip: %v %v", v, err)
	}
	for _, i := range []int{-1, 4} {
		if b.WordAt(i) != nil {
			t.Errorf("WordAt(%d) of a 4-element buffer must be nil", i)
		}
	}
	if w := b.WordAt(2); w == nil || int64(*w) != 9 {
		t.Errorf("WordAt(2) must address the element Store wrote")
	}
	if NewBuffer(KPtr, 4, Host, "p").WordAt(0) != nil {
		t.Error("a boxed buffer has no words")
	}
}

// TestStoreWordConvertsAsStore holds the word path to Store's conversion
// rules: every value kind stored into every numeric element kind through
// WordAt and StoreWord reads back, through LoadWordInto, exactly as a
// Store and Load of the same value do.
func TestStoreWordConvertsAsStore(t *testing.T) {
	vals := []Value{Int(16777217), Int(-7), F32(2.7), F64(-1.0000001), F64(1e300), F64(-2.5)}
	for _, elem := range []Kind{KInt, KF32, KF64} {
		for _, v := range vals {
			boxed, word := NewBuffer(elem, 2, Host, "b"), NewBuffer(elem, 2, Host, "w")
			if err := boxed.Store(1, v); err != nil {
				t.Fatal(err)
			}
			want, _ := boxed.Load(1)
			w := word.WordAt(1)
			word.StoreWord(w, &v)
			var got Value
			word.LoadWordInto(w, &got)
			if got.K != want.K || got.I != want.I || math.Float64bits(got.F) != math.Float64bits(want.F) {
				t.Errorf("%v into %v: word path reads {%v %d %g}, Store/Load {%v %d %g}", v, elem, got.K, got.I, got.F, want.K, want.I, want.F)
			}
		}
	}
}

func TestBufferStoreConverts(t *testing.T) {
	b := NewBuffer(KF32, 1, Host, "f")
	if err := b.Store(0, Int(3)); err != nil {
		t.Fatal(err)
	}
	v, _ := b.Load(0)
	if v.K != KF32 || v.F != 3 {
		t.Errorf("store must coerce to the element kind: %v", v)
	}
}

func TestCopyTo(t *testing.T) {
	src := NewBuffer(KInt, 8, Host, "src")
	dst := NewBuffer(KInt, 8, Device, "dst")
	for i := 0; i < 8; i++ {
		_ = src.Store(i, Int(int64(i*i)))
	}
	if err := src.CopyTo(2, dst, 1, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		v, _ := dst.Load(1 + i)
		if v.I != int64((2+i)*(2+i)) {
			t.Errorf("dst[%d] = %d", 1+i, v.I)
		}
	}
	if err := src.CopyTo(6, dst, 0, 4); err == nil {
		t.Error("source overrun must fail")
	}
	if err := src.CopyTo(0, dst, 6, 4); err == nil {
		t.Error("destination overrun must fail")
	}
}

func TestGarbageBufferDeterministicAndNonZero(t *testing.T) {
	a := NewGarbageBuffer(KInt, 64, Device, "g", 42)
	b := NewGarbageBuffer(KInt, 64, Device, "g", 42)
	c := NewGarbageBuffer(KInt, 64, Device, "g", 43)
	sameAsB, sameAsC, zeros := 0, 0, 0
	for i := 0; i < 64; i++ {
		av, _ := a.Load(i)
		bv, _ := b.Load(i)
		cv, _ := c.Load(i)
		if av.Equal(bv) {
			sameAsB++
		}
		if av.Equal(cv) {
			sameAsC++
		}
		if av.I == 0 {
			zeros++
		}
	}
	if sameAsB != 64 {
		t.Error("same seed must give identical garbage")
	}
	if sameAsC > 8 {
		t.Errorf("different seeds should differ (%d/64 equal)", sameAsC)
	}
	if zeros > 4 {
		t.Errorf("garbage should rarely be zero (%d/64 zeros)", zeros)
	}
}

// Property: concurrent disjoint stores never interfere (stripe isolation).
func TestConcurrentDisjointStores(t *testing.T) {
	b := NewBuffer(KInt, 1024, Device, "p")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 1024; i += 8 {
				_ = b.Store(i, Int(int64(i)))
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 1024; i++ {
		v, _ := b.Load(i)
		if v.I != int64(i) {
			t.Fatalf("b[%d] = %d after disjoint concurrent stores", i, v.I)
		}
	}
}

func TestSnapshotAndFill(t *testing.T) {
	b := NewBuffer(KInt, 4, Host, "s")
	b.Fill(Int(7))
	snap := b.Snapshot()
	if len(snap) != 4 {
		t.Fatal("snapshot length")
	}
	for _, v := range snap {
		if v.I != 7 {
			t.Error("fill/snapshot mismatch")
		}
	}
	_ = b.Store(0, Int(1))
	if snap[0].I != 7 {
		t.Error("snapshot must be a copy")
	}
}

func TestPointerValueString(t *testing.T) {
	if Int(5).String() != "5" {
		t.Error("int rendering")
	}
	if Str("hi").String() != "hi" {
		t.Error("string rendering")
	}
	if PtrVal(Ptr{}).String() != "nil" {
		t.Error("nil pointer rendering")
	}
}

func TestNearlyEqual(t *testing.T) {
	if !NearlyEqual(1.0, 1.0+1e-10, 1e-9) {
		t.Error("within epsilon must be equal")
	}
	if NearlyEqual(1.0, 1.0+1e-8, 1e-9) {
		t.Error("outside epsilon must differ")
	}
}

func TestSizeofBasic(t *testing.T) {
	if SizeofBasic(KInt) != 4 || SizeofBasic(KF32) != 4 || SizeofBasic(KF64) != 8 {
		t.Error("simulated sizes changed; acc_malloc arithmetic depends on these")
	}
}
