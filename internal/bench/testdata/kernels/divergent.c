/*
 * divergent — data-dependent branches and an indirect store, NOT
 * batchable.
 *
 * Each lane takes one of three arms depending on its element, and stores
 * through a permutation array. The LaneSafety oracle cannot prove the
 * indirect store lane-disjoint, so every engine runs this nest on the
 * goroutine-per-lane path: a lane-batching change must show no gain here
 * while gang_flops speeds up.
 */
#include <openacc.h>

int acc_test()
{
    int n = 2048;
    int i, k;
    int errors = 0;
    int perm[2048];
    double a[2048], b[2048];
    for (i = 0; i < n; i++) {
        perm[i] = (i * 7) % n;
        a[i] = i;
        b[i] = -1;
    }
    #pragma acc parallel copyin(a[0:n], perm[0:n]) copy(b[0:n]) num_gangs(8)
    {
        #pragma acc loop gang
        for (i = 0; i < n; i++) {
            double s = a[i];
            if (i % 3 == 0) {
                for (k = 0; k < 40; k++)
                    s = s + 1.0;
            } else if (i % 3 == 1) {
                for (k = 0; k < 20; k++)
                    s = s + 2.0;
            } else {
                for (k = 0; k < 10; k++)
                    s = s - 1.0;
            }
            b[perm[i]] = s;
        }
    }
    for (i = 0; i < n; i++) {
        double want = a[i] + 40.0;
        if (i % 3 == 2) want = a[i] - 10.0;
        if (b[perm[i]] != want) errors++;
    }
    return (errors == 0);
}
