// SIGPROF program-counter sampler, loaded into a process with LD_PRELOAD.
//
// Samples the interrupted PC once per millisecond of process CPU time
// (ITIMER_PROF) into a static buffer; the handler neither allocates nor
// locks. At exit it writes sigprof.<pid>.out to the working directory:
// the process's executable mappings ("map <line of /proc/self/maps>")
// followed by one "pc <hex>" line per sample. symbolize.py turns that into
// a per-function table. Single-threaded targets only (the simulator is).
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 22)

static unsigned long samples[MAX_SAMPLES];
static volatile unsigned long nsamples;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
  (void)sig;
  (void)info;
  const ucontext_t *uc = ctx;
#if defined(__x86_64__)
  const unsigned long pc = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const unsigned long pc = (unsigned long)uc->uc_mcontext.pc;
#else
#error "sigprof: unsupported architecture"
#endif
  if (nsamples < MAX_SAMPLES) samples[nsamples++] = pc;
}

__attribute__((constructor)) static void sigprof_start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void sigprof_stop(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  char path[64];
  snprintf(path, sizeof path, "sigprof.%d.out", (int)getpid());
  FILE *out = fopen(path, "w");
  if (out == NULL) return;
  FILE *maps = fopen("/proc/self/maps", "r");
  char line[4096];
  while (maps != NULL && fgets(line, sizeof line, maps) != NULL) {
    fprintf(out, "map %s", line);
  }
  if (maps != NULL) fclose(maps);
  for (unsigned long i = 0; i < nsamples; ++i) {
    fprintf(out, "pc %lx\n", samples[i]);
  }
  fclose(out);
  fprintf(stderr, "sigprof: %lu samples -> %s\n", nsamples, path);
}
