package device_test

// The device admits a kernel launch and counts it; the interpreter runs the
// launched gangs. These tests pin the launch contract end to end, through
// programs: what a launched kernel's gangs report, and what a refused
// launch reports, is the run's error.

import (
	"strings"
	"testing"

	"accv/internal/cfront"
	"accv/internal/compiler"
	"accv/internal/device"
	"accv/internal/interp"
)

func runOn(t *testing.T, plat *device.Platform, src string, eng interp.Engine, seed int64) interp.Result {
	t.Helper()
	prog, err := cfront.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	exe, _, err := compiler.Compile(prog, compiler.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return interp.Run(exe, interp.RunConfig{Platform: plat, Engine: eng, Seed: seed})
}

// oneGangFails launches four gangs; gang 2 alone stores out of bounds.
const oneGangFails = `
int acc_test() {
    int a[4];
    int i;
    #pragma acc parallel copy(a) num_gangs(4)
    {
        #pragma acc loop gang
        for (i = 0; i < 4; i++) {
            if (i == 2) a[i + 8] = i;
            else a[i] = i;
        }
    }
    return 1;
}`

func TestLaunchErrorPropagation(t *testing.T) {
	for _, eng := range []interp.Engine{interp.EngineVM, interp.EngineTree} {
		plat := device.NewPlatform(device.Config{}, 1)
		res := runOn(t, plat, oneGangFails, eng, 1)
		if res.Err == nil || !strings.Contains(res.Err.Error(), "index 10 out of range") {
			t.Fatalf("%s engine: want gang 2's out-of-bounds error, got %v", eng, res.Err)
		}
		if res.Kernels != 1 {
			t.Fatalf("%s engine: the admitted launch must count one kernel, got %d", eng, res.Kernels)
		}

		tiny := device.Backend{Name: "tiny", GangLimit: 2, WorkerLimit: 4, VectorLimit: 32, CycleScale: 1}
		plat = device.NewPlatform(device.Config{Backend: tiny}, 1)
		res = runOn(t, plat, oneGangFails, eng, 1)
		if res.Err == nil || !strings.Contains(res.Err.Error(), "num_gangs 4 exceeds backend limit 2") {
			t.Fatalf("%s engine: want the refused launch's error, got %v", eng, res.Err)
		}
		if res.Kernels != 0 {
			t.Fatalf("%s engine: a refused launch must count no kernel, got %d", eng, res.Kernels)
		}
	}
}

// Gangs 1, 2 and 3 of an async launch store out of bounds at index 8+g
// while gang 0 succeeds. The error deferred to the queue's wait must be
// gang 1's on every run, whichever gang the scheduler finished first.
func TestLaneErrorKeepsLowestLane(t *testing.T) {
	const src = `
int acc_test() {
    int a[8];
    int i;
    #pragma acc parallel copy(a) num_gangs(4) async(1)
    {
        #pragma acc loop gang
        for (i = 0; i < 4; i++) {
            if (i > 0) a[i + 8] = i;
            else a[i] = i;
        }
    }
    #pragma acc wait(1)
    return 1;
}`
	for _, eng := range []interp.Engine{interp.EngineVM, interp.EngineTree} {
		for seed := int64(1); seed <= 20; seed++ {
			res := runOn(t, device.NewPlatform(device.Config{}, 1), src, eng, seed)
			if res.Err == nil || !strings.Contains(res.Err.Error(), "index 9 out of range") {
				t.Fatalf("%s engine, seed %d: want gang 1's index 9, got %v", eng, seed, res.Err)
			}
		}
	}
}
