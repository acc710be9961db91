/*
 * sprof: a SIGPROF sampling profiler loaded with LD_PRELOAD.
 *
 *   cc -O2 -g -Wall -Werror -shared -fPIC -o sprof.so scripts/sprof/sprof.c
 *   SPROF_OUT=prof.txt LD_PRELOAD=$PWD/sprof.so ./hoplite_perf ...
 *   python3 scripts/sprof/report.py prof.txt --root RunTrace
 *
 * At load it arms setitimer(ITIMER_PROF), which fires after each slice of
 * process CPU time. The handler stores the interrupted stack's backtrace()
 * frames in a static buffer: it never allocates, because backtrace() is
 * called once at load (its first call loads the unwinder). At exit the
 * library writes /proc/self/maps and every stack to $SPROF_OUT, and
 * report.py symbolizes them. Without $SPROF_OUT it does nothing.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

enum {
  kMaxFrames = 128,
  kMaxSamples = 1 << 15,
  /* Frames of the handler and of the signal trampoline, above the
   * interrupted instruction. */
  kSkipFrames = 2,
  kPeriodUs = 1000,
};

static void* g_frames[kMaxSamples][kMaxFrames];
static int g_depth[kMaxSamples];
static int g_taken;   /* slots claimed, may exceed kMaxSamples */
static int g_active;

static void OnProf(int signo) {
  (void)signo;
  const int saved_errno = errno;
  const int slot = __atomic_fetch_add(&g_taken, 1, __ATOMIC_RELAXED);
  if (slot < kMaxSamples) {
    void* frames[kMaxFrames + kSkipFrames];
    const int n = backtrace(frames, kMaxFrames + kSkipFrames);
    const int depth = n > kSkipFrames ? n - kSkipFrames : 0;
    memcpy(g_frames[slot], frames + kSkipFrames, (size_t)depth * sizeof(void*));
    __atomic_store_n(&g_depth[slot], depth, __ATOMIC_RELEASE);
  }
  errno = saved_errno;
}

__attribute__((constructor)) static void SprofStart(void) {
  if (getenv("SPROF_OUT") == NULL) return;
  void* warm[1];
  (void)backtrace(warm, 1);
  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_handler = OnProf;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, NULL) != 0) {
    perror("sprof: sigaction");
    return;
  }
  const struct itimerval timer = {{0, kPeriodUs}, {0, kPeriodUs}};
  if (setitimer(ITIMER_PROF, &timer, NULL) != 0) {
    perror("sprof: setitimer");
    return;
  }
  g_active = 1;
}

__attribute__((destructor)) static void SprofWrite(void) {
  if (!g_active) return;
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);
  const char* path = getenv("SPROF_OUT");
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    perror("sprof: cannot open $SPROF_OUT");
    return;
  }
  const int taken = __atomic_load_n(&g_taken, __ATOMIC_ACQUIRE);
  const int samples = taken < kMaxSamples ? taken : kMaxSamples;
  fprintf(out, "sprof 1\nperiod_us %d\nsamples %d\ndropped %d\nmaps\n", kPeriodUs, samples,
          taken - samples);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL) fputs(line, out);
    fclose(maps);
  }
  fputs("stacks\n", out);
  for (int s = 0; s < samples; ++s) {
    const int depth = __atomic_load_n(&g_depth[s], __ATOMIC_ACQUIRE);
    fprintf(out, "%d", depth);
    for (int f = 0; f < depth; ++f) fprintf(out, " %p", g_frames[s][f]);
    fputc('\n', out);
  }
  fclose(out);
}
