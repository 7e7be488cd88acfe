/*
 * sprof: a sampling CPU profiler for hosts without `perf`.
 *
 * Built as an LD_PRELOAD library, it takes an ITIMER_PROF sample of the
 * running thread's stack every millisecond of CPU time (`backtrace()`
 * into a static array, nothing allocated in the signal handler), and at
 * exit writes each sample's addresses and a copy of /proc/self/maps to
 * `$SPROF_OUT.<pid>` (default `sprof.<pid>`). `sym.py` names them.
 *
 *   gcc -O2 -shared -fPIC -o /tmp/sprof.so tools/sprof/sprof.c
 *   LD_PRELOAD=/tmp/sprof.so <command>
 *   python3 tools/sprof/sym.py sprof.<pid>
 *
 * Every process the command starts inherits LD_PRELOAD and writes a
 * file of its own. ITIMER_PROF counts the CPU time of all threads, and
 * the kernel signals whichever thread is running, so a sample lands in
 * proportion to CPU use. A process that ends in `_exit` or by a signal
 * writes nothing.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 16)
#define MAX_DEPTH 48
/* Frames of the handler itself and the kernel's signal trampoline. */
#define SKIP 2

struct sample {
    int depth;
    void *pc[MAX_DEPTH];
};

static struct sample samples[MAX_SAMPLES];
static atomic_int taken;

static void on_prof(int sig, siginfo_t *info, void *uctx)
{
    (void)sig;
    (void)info;
    (void)uctx;
    int i = atomic_fetch_add(&taken, 1);
    if (i >= MAX_SAMPLES)
        return;
    samples[i].depth = backtrace(samples[i].pc, MAX_DEPTH);
}

static void dump(void)
{
    struct itimerval off = {0};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *base = getenv("SPROF_OUT");
    char path[512];
    snprintf(path, sizeof path, "%s.%d", base ? base : "sprof", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    int n = atomic_load(&taken);
    if (n > MAX_SAMPLES)
        n = MAX_SAMPLES;
    fprintf(out, "samples %d\n", n);
    for (int i = 0; i < n; i++) {
        for (int d = SKIP; d < samples[i].depth; d++)
            fprintf(out, "%s%lx", d > SKIP ? " " : "", (unsigned long)samples[i].pc[d]);
        fputc('\n', out);
    }
    fputs("maps\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps))
            fputs(line, out);
        fclose(maps);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void)
{
    /* The first backtrace() loads the unwinder; not in a signal handler. */
    void *warm[1];
    backtrace(warm, 1);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}
