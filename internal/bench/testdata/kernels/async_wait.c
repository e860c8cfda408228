/*
 * async_wait — asynchronous launches on several queues.
 *
 * Each round launches one kernel on each of four async queues, polls one
 * queue with acc_async_test and then waits on every queue. Run time is
 * set by queue scheduling and wait handling (device.queue_waits) as much
 * as by the kernels, which the synchronous kernels never exercise.
 */
#include <openacc.h>

int acc_test()
{
    int n = 1024;
    int rounds = 16;
    int i, r, q;
    int errors = 0;
    double a[1024], b[1024], c[1024], d[1024];
    for (i = 0; i < n; i++) {
        a[i] = 0;
        b[i] = 0;
        c[i] = 0;
        d[i] = 0;
    }
    for (r = 0; r < rounds; r++) {
        #pragma acc parallel loop copy(a[0:n]) num_gangs(4) async(1)
        for (i = 0; i < n; i++)
            a[i] = a[i] + 1;
        #pragma acc parallel loop copy(b[0:n]) num_gangs(4) async(2)
        for (i = 0; i < n; i++)
            b[i] = b[i] + 2;
        #pragma acc parallel loop copy(c[0:n]) num_gangs(4) async(3)
        for (i = 0; i < n; i++)
            c[i] = c[i] + 3;
        #pragma acc parallel loop copy(d[0:n]) num_gangs(4) async(4)
        for (i = 0; i < n; i++)
            d[i] = d[i] + 4;
        q = acc_async_test(1);
        #pragma acc wait(1)
        #pragma acc wait(2)
        #pragma acc wait(3)
        #pragma acc wait(4)
    }
    for (i = 0; i < n; i++) {
        if (a[i] != rounds) errors++;
        if (b[i] != 2 * rounds) errors++;
        if (c[i] != 3 * rounds) errors++;
        if (d[i] != 4 * rounds) errors++;
    }
    return (errors == 0);
}
