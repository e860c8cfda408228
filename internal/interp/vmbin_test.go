package interp

import (
	"math"
	"testing"

	"accv/internal/ast"
	"accv/internal/mem"
	"accv/internal/rt"
)

// TestVMFastPathsMatchBinOp holds the VM's inlined integer and double
// operators to rt.BinOp, the one implementation both engines share: for
// every operator and operand pair a fast path handles, it must produce
// rt.BinOp's kind and payload (the only fields the fast paths write).
func TestVMFastPathsMatchBinOp(t *testing.T) {
	ints := []int64{0, 1, -1, 2, -7, 7, 63, 64, math.MinInt64, math.MaxInt64}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -2.5, 3,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.MinInt64}
	intCases, floatCases := 0, 0
	for k := ast.OpInvalid; k <= ast.OpAddrOf; k++ {
		for _, a := range ints {
			for _, b := range ints {
				var got mem.Value
				if !vmIntBin(k, a, b, &got) {
					continue
				}
				intCases++
				want, err := rt.BinOp(k, mem.Int(a), mem.Int(b))
				if err != nil || got.K != want.K || got.I != want.I {
					t.Errorf("vmIntBin %d %s %d = {%v %d}; rt.BinOp = {%v %d}, %v", a, k, b, got.K, got.I, want.K, want.I, err)
				}
			}
		}
		for _, a := range floats {
			for _, b := range floats {
				var got mem.Value
				if !vmF64Bin(k, a, b, &got) {
					continue
				}
				floatCases++
				want, err := rt.BinOp(k, mem.F64(a), mem.F64(b))
				if err != nil || got.K != want.K || !samePayload(got, want) {
					t.Errorf("vmF64Bin %g %s %g = {%v %d %g}; rt.BinOp = {%v %d %g}, %v", a, k, b, got.K, got.I, got.F, want.K, want.I, want.F, err)
				}
			}
		}
	}
	if intCases == 0 || floatCases == 0 {
		t.Fatalf("vacuous: the fast paths handled %d int and %d double cases", intCases, floatCases)
	}
}

// samePayload compares the payload field of a value's kind; NaNs compare
// by bit pattern.
func samePayload(a, b mem.Value) bool {
	if a.K == mem.KInt {
		return a.I == b.I
	}
	return math.Float64bits(a.F) == math.Float64bits(b.F)
}
