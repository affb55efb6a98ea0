// SIGPROF program-counter sampler, loaded into a process with LD_PRELOAD.
//
// Samples the interrupted PC once per millisecond of process CPU time
// (ITIMER_PROF) into a static buffer; the handler neither allocates nor
// locks. At exit it writes sigprof.<pid>.out to the working directory:
// the process's executable mappings ("map <line of /proc/self/maps>")
// followed by one "pc <hex>" line per sample. symbolize.py turns that into
// a per-function table. Single-threaded targets only (the simulator is).
//
// With SIGPROF_CALLER=1 each sample also records the return address a
// leaf function would return to: the word at the stack pointer on x86-64,
// the link register on AArch64 ("pc <hex> <hex>"). That names the caller
// of a frameless leaf such as libc's memset or memcpy; for a PC inside a
// function that has set up its frame, the word is whatever the frame
// holds there, and symbolize.py drops it unless it points into code.
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 22)

static unsigned long samples[MAX_SAMPLES];
static unsigned long callers[MAX_SAMPLES];
static volatile unsigned long nsamples;
static int with_caller;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
  (void)sig;
  (void)info;
  const ucontext_t *uc = ctx;
  if (nsamples >= MAX_SAMPLES) return;
#if defined(__x86_64__)
  samples[nsamples] = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
  if (with_caller) {
    callers[nsamples] =
        *(const unsigned long *)uc->uc_mcontext.gregs[REG_RSP];
  }
#elif defined(__aarch64__)
  samples[nsamples] = (unsigned long)uc->uc_mcontext.pc;
  if (with_caller) callers[nsamples] = (unsigned long)uc->uc_mcontext.regs[30];
#else
#error "sigprof: unsupported architecture"
#endif
  ++nsamples;
}

__attribute__((constructor)) static void sigprof_start(void) {
  const char *caller = getenv("SIGPROF_CALLER");
  with_caller = caller != NULL && strcmp(caller, "1") == 0;
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
    if (with_caller) {
      fprintf(out, "pc %lx %lx\n", samples[i], callers[i]);
    } else {
      fprintf(out, "pc %lx\n", samples[i]);
    }
  }
  fclose(out);
  fprintf(stderr, "sigprof: %lu samples -> %s\n", nsamples, path);
}
