// operator-new call-site counter, loaded into a process with LD_PRELOAD.
//
// Replaces the global C++ allocation functions (plain, array, nothrow and
// aligned forms) with malloc-backed versions that count each call, and the
// bytes it asked for, by its call site: the return address of the
// operator new call, or, with NEWSITES_DEPTH=N (N <= 8), the first N return
// addresses of a backtrace(). At exit it writes newsites.<pid>.out to the
// working directory: the process's executable mappings ("map <line of
// /proc/self/maps>") followed by one "site <count> <bytes> <hex>[,<hex>...]"
// line per distinct site. The bytes are the sum of the sizes requested,
// not what is still live: a site that frees and allocates again counts
// every request.
// symbolize.py turns that file into a per-site table. Deeper sites cost a
// backtrace() per allocation, so a depth above 1 slows the run down
// several times. Single-threaded targets only (the simulator is).
#define _GNU_SOURCE
#include <execinfo.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

#define MAX_DEPTH 8
#define TABLE_BITS 16
#define TABLE_SIZE (1u << TABLE_BITS)

struct site {
  unsigned long count;
  unsigned long bytes;
  void *pcs[MAX_DEPTH];
};

static struct site table[TABLE_SIZE];
static unsigned long total, total_bytes, dropped;
static int depth = 1;
static int in_backtrace;

static void count_site(void *caller, size_t size) {
  void *pcs[MAX_DEPTH + 1] = {0};
  if (depth <= 1 || in_backtrace) {
    pcs[0] = caller;
  } else {
    // backtrace() may allocate on its first call (it loads the unwinder);
    // those nested allocations are charged to the caller alone.
    in_backtrace = 1;
    void *raw[MAX_DEPTH + 2];
    const int n = backtrace(raw, depth + 2);
    in_backtrace = 0;
    // raw[0] is count_site's caller, raw[1] the operator new's caller.
    for (int i = 2; i < n; ++i) pcs[i - 2] = raw[i];
    if (n < 3) pcs[0] = caller;
  }
  unsigned long h = 1469598103934665603ul;
  for (int i = 0; i < depth; ++i) h = (h ^ (unsigned long)pcs[i]) * 1099511628211ul;
  ++total;
  total_bytes += size;
  for (unsigned long probe = 0; probe < TABLE_SIZE; ++probe) {
    struct site *s = &table[(h + probe) & (TABLE_SIZE - 1)];
    if (s->count == 0) {
      memcpy(s->pcs, pcs, sizeof s->pcs);
    } else if (memcmp(s->pcs, pcs, sizeof s->pcs) != 0) {
      continue;
    }
    ++s->count;
    s->bytes += size;
    return;
  }
  ++dropped;
}

static void *checked(void *p) {
  if (p == NULL) {
    fputs("newsites: out of memory\n", stderr);
    abort();
  }
  return p;
}

#define CALLER __builtin_extract_return_addr(__builtin_return_address(0))

// operator new(size_t), operator new[](size_t)
void *_Znwm(size_t n) {
  count_site(CALLER, n);
  return checked(malloc(n ? n : 1));
}
void *_Znam(size_t n) {
  count_site(CALLER, n);
  return checked(malloc(n ? n : 1));
}
// nothrow forms
void *_ZnwmRKSt9nothrow_t(size_t n, const void *tag) {
  (void)tag;
  count_site(CALLER, n);
  return malloc(n ? n : 1);
}
void *_ZnamRKSt9nothrow_t(size_t n, const void *tag) {
  (void)tag;
  count_site(CALLER, n);
  return malloc(n ? n : 1);
}
// aligned forms: operator new(size_t, std::align_val_t) and array
static void *aligned(size_t n, size_t align) {
  void *p = NULL;
  if (posix_memalign(&p, align < sizeof(void *) ? sizeof(void *) : align,
                     n ? n : 1) != 0) {
    return NULL;
  }
  return p;
}
void *_ZnwmSt11align_val_t(size_t n, size_t align) {
  count_site(CALLER, n);
  return checked(aligned(n, align));
}
void *_ZnamSt11align_val_t(size_t n, size_t align) {
  count_site(CALLER, n);
  return checked(aligned(n, align));
}

__attribute__((constructor)) static void newsites_start(void) {
  const char *d = getenv("NEWSITES_DEPTH");
  if (d != NULL) depth = atoi(d);
  if (depth < 1) depth = 1;
  if (depth > MAX_DEPTH) depth = MAX_DEPTH;
}

__attribute__((destructor)) static void newsites_stop(void) {
  char path[64];
  snprintf(path, sizeof path, "newsites.%d.out", (int)getpid());
  FILE *out = fopen(path, "w");
  if (out == NULL) return;
  FILE *maps = fopen("/proc/self/maps", "r");
  char line[4096];
  while (maps != NULL && fgets(line, sizeof line, maps) != NULL) {
    fprintf(out, "map %s", line);
  }
  if (maps != NULL) fclose(maps);
  for (unsigned long i = 0; i < TABLE_SIZE; ++i) {
    const struct site *s = &table[i];
    if (s->count == 0) continue;
    fprintf(out, "site %lu %lu ", s->count, s->bytes);
    for (int k = 0; k < depth && s->pcs[k] != NULL; ++k) {
      fprintf(out, k == 0 ? "%lx" : ",%lx", (unsigned long)s->pcs[k]);
    }
    fputc('\n', out);
  }
  fclose(out);
  fprintf(stderr,
          "newsites: %lu allocations, %lu bytes requested (%lu unrecorded) "
          "-> %s\n",
          total, total_bytes, dropped, path);
}
