/*
 * gang_flops — compute-bound, gang-partitioned, oracle-batchable.
 *
 * Every gang lane owns one element and runs a long scalar loop on it, so
 * run time is almost all per-op dispatch inside one kernel launch. The
 * LaneSafety oracle proves the nest lane-independent, so a lane-batching
 * engine change shows here first (compare divergent, which it cannot
 * batch). Sized for a median of several tens of milliseconds under the
 * default engine.
 */
#include <openacc.h>

int acc_test()
{
    int n = 4096;
    int i, k;
    int errors = 0;
    double a[4096];
    for (i = 0; i < n; i++) a[i] = i;
    #pragma acc parallel copy(a[0:n]) num_gangs(8)
    {
        #pragma acc loop gang
        for (i = 0; i < n; i++) {
            double s = a[i];
            for (k = 0; k < 48; k++)
                s = s + 0.5;
            a[i] = s;
        }
    }
    for (i = 0; i < n; i++) {
        if (a[i] != i + 24.0) errors++;
    }
    return (errors == 0);
}
