/*
 * worker_reduction — gang × worker mapping with a worker-level reduction.
 *
 * Gangs take rows, the workers of each gang split the columns and
 * combine their partial sums through reduction(+:s). This is the Fig. 4
 * mapping at a size where the worker fan-out and the reduction combine,
 * not the host loop, set the run time (the same shape at 4096 elements
 * runs in a couple of milliseconds, below timer noise).
 */
#include <openacc.h>

int acc_test()
{
    int rows = 128;
    int cols = 512;
    int i, j;
    int errors = 0;
    int sums[128];
    for (i = 0; i < rows; i++) sums[i] = 0;
    #pragma acc parallel copy(sums[0:rows]) num_gangs(8) num_workers(8)
    {
        #pragma acc loop gang
        for (i = 0; i < rows; i++) {
            int s = 0;
            #pragma acc loop worker reduction(+:s)
            for (j = 0; j < cols; j++)
                s = s + (i + j) % 7;
            sums[i] = s;
        }
    }
    for (i = 0; i < rows; i++) {
        int want = 0;
        for (j = 0; j < cols; j++)
            want = want + (i + j) % 7;
        if (sums[i] != want) errors++;
    }
    return (errors == 0);
}
