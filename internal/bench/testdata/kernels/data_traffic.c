/*
 * data_traffic — data-movement heavy, launch-heavy, oracle-batchable.
 *
 * Little arithmetic per element but many transfers: each round launches
 * a kernel whose copyin/copy clauses move two whole arrays, and a data
 * region then reuses the device copies through present clauses with
 * update host/device between launches. Run time is dominated by the
 * device layer's transfers and present-table lookups (device.mb_moved,
 * device.present_hit_ratio), not by the interpreter's dispatch.
 */
#include <openacc.h>

int acc_test()
{
    int n = 4096;
    int rounds = 12;
    int i, r;
    int errors = 0;
    double a[4096], b[4096];
    for (i = 0; i < n; i++) {
        a[i] = i;
        b[i] = 0;
    }
    for (r = 0; r < rounds; r++) {
        #pragma acc parallel loop copyin(a[0:n]) copy(b[0:n]) num_gangs(8)
        for (i = 0; i < n; i++)
            b[i] = b[i] + a[i];
    }
    #pragma acc data copyin(a[0:n]) copy(b[0:n])
    {
        for (r = 0; r < rounds; r++) {
            #pragma acc parallel loop present(a[0:n], b[0:n]) num_gangs(8)
            for (i = 0; i < n; i++)
                b[i] = b[i] - a[i];
            #pragma acc update host(b[0:n])
            b[0] = b[0] + 1;
            #pragma acc update device(b[0:n])
        }
    }
    for (i = 0; i < n; i++) {
        if (i == 0) {
            if (b[i] != rounds) errors++;
        } else if (b[i] != 0) {
            errors++;
        }
    }
    return (errors == 0);
}
