// operator-new call-site counter, loaded into a process with LD_PRELOAD.
//
// Replaces the global C++ allocation functions (plain, array, nothrow and
// aligned forms) and their matching delete functions with malloc-backed
// versions. Each allocation is counted, with the bytes it asked for, by
// its call site: the return address of the operator new call, or, with
// NEWSITES_DEPTH=N (N <= 8), the first N return addresses of a
// backtrace(). A header in front of each block names its site and size,
// so a delete takes the bytes back off its site's live total; the file
// also records each site's live bytes at the moment the process's live
// heap (the sum over all sites) was at its highest.
//
// At exit it writes newsites.<pid>.out to the working directory: the
// process's executable mappings ("map <line of /proc/self/maps>")
// followed by one "site <count> <bytes> <live-at-peak> <hex>[,<hex>...]"
// line per distinct site. <bytes> is the sum of the sizes requested (a
// site that frees and allocates again counts every request); <live-at-
// peak> is what the site held at the live-heap peak. symbolize.py turns
// that file into a per-site table. Deeper sites cost a backtrace() per
// allocation, so a depth above 1 slows the run down several times. The
// header adds 16 bytes (or the alignment, for aligned forms) to every
// block. Single-threaded targets only (the simulator is).
#define _GNU_SOURCE
#include <execinfo.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

#define MAX_DEPTH 8
#define TABLE_BITS 16
#define TABLE_SIZE (1u << TABLE_BITS)
#define NO_SITE TABLE_SIZE

struct site {
  unsigned long count;
  unsigned long bytes;
  unsigned long live;     // bytes allocated here and not yet deleted
  unsigned long at_peak;  // `live` at the last live-heap peak, once stamped
  unsigned long stamp;    // peak_id when at_peak was taken
  void *pcs[MAX_DEPTH];
};

// Sits right before the pointer handed out; 16 bytes keep that pointer
// as aligned as malloc's.
struct header {
  unsigned long site;
  unsigned long size;
};

static struct site table[TABLE_SIZE];
static unsigned long total, total_bytes, dropped;
static unsigned long live_total, peak_total, peak_id;
static int depth = 1;
static int in_backtrace;

// Returns the site's table index, NO_SITE when the table is full.
static unsigned long count_site(void *caller, size_t size) {
  void *pcs[MAX_DEPTH + 1] = {0};
  if (depth <= 1 || in_backtrace) {
    pcs[0] = caller;
  } else {
    // backtrace() may allocate on its first call (it loads the unwinder);
    // those nested allocations are charged to the caller alone.
    in_backtrace = 1;
    void *raw[MAX_DEPTH + 4];
    const int n = backtrace(raw, depth + 4);
    in_backtrace = 0;
    // The frames of this file (how many depends on inlining) come first;
    // the chain starts at the operator new's caller.
    int from = 0;
    while (from < n && raw[from] != caller) ++from;
    for (int i = from; i < n && i - from < depth; ++i) pcs[i - from] = raw[i];
    if (from == n) pcs[0] = caller;
  }
  unsigned long h = 1469598103934665603ul;
  for (int i = 0; i < depth; ++i) h = (h ^ (unsigned long)pcs[i]) * 1099511628211ul;
  ++total;
  total_bytes += size;
  for (unsigned long probe = 0; probe < TABLE_SIZE; ++probe) {
    const unsigned long i = (h + probe) & (TABLE_SIZE - 1);
    struct site *s = &table[i];
    if (s->count == 0) {
      memcpy(s->pcs, pcs, sizeof s->pcs);
    } else if (memcmp(s->pcs, pcs, sizeof s->pcs) != 0) {
      continue;
    }
    ++s->count;
    s->bytes += size;
    return i;
  }
  ++dropped;
  return NO_SITE;
}

// Before a site's live total moves: if it has not moved since the last
// peak, its value now is its value at that peak. Every site thus holds
// its at-peak bytes without a sweep of the table at each new peak.
static struct site *touch(unsigned long i) {
  if (i == NO_SITE) return NULL;
  struct site *s = &table[i];
  if (s->stamp != peak_id) {
    s->at_peak = s->live;
    s->stamp = peak_id;
  }
  return s;
}

static void charge(unsigned long i, unsigned long size) {
  struct site *s = touch(i);
  if (s != NULL) s->live += size;
  live_total += size;
  if (live_total > peak_total) {
    peak_total = live_total;
    ++peak_id;
  }
}

static void release(unsigned long i, unsigned long size) {
  struct site *s = touch(i);
  if (s != NULL) s->live -= size;
  live_total -= size;
}

static size_t header_room(size_t align) {
  return align > sizeof(struct header) ? align : sizeof(struct header);
}

static void *allocate(void *caller, size_t n, size_t align, int nothrow) {
  const size_t room = header_room(align);
  void *base = NULL;
  if (align <= sizeof(struct header)) {
    base = malloc(room + n);
  } else if (posix_memalign(&base, align, room + n) != 0) {
    base = NULL;
  }
  if (base == NULL) {
    if (nothrow) return NULL;
    fputs("newsites: out of memory\n", stderr);
    abort();
  }
  char *p = (char *)base + room;
  struct header *h = (struct header *)p - 1;
  h->site = count_site(caller, n);
  h->size = n;
  charge(h->site, n);
  return p;
}

static void deallocate(void *p, size_t align) {
  if (p == NULL) return;
  const struct header *h = (const struct header *)p - 1;
  release(h->site, h->size);
  free((char *)p - header_room(align));
}

#define CALLER __builtin_extract_return_addr(__builtin_return_address(0))

// operator new(size_t), operator new[](size_t)
void *_Znwm(size_t n) { return allocate(CALLER, n, 0, 0); }
void *_Znam(size_t n) { return allocate(CALLER, n, 0, 0); }
// nothrow forms
void *_ZnwmRKSt9nothrow_t(size_t n, const void *tag) {
  (void)tag;
  return allocate(CALLER, n, 0, 1);
}
void *_ZnamRKSt9nothrow_t(size_t n, const void *tag) {
  (void)tag;
  return allocate(CALLER, n, 0, 1);
}
// aligned forms: operator new(size_t, std::align_val_t), array, nothrow
void *_ZnwmSt11align_val_t(size_t n, size_t align) {
  return allocate(CALLER, n, align, 0);
}
void *_ZnamSt11align_val_t(size_t n, size_t align) {
  return allocate(CALLER, n, align, 0);
}
void *_ZnwmSt11align_val_tRKSt9nothrow_t(size_t n, size_t align,
                                         const void *tag) {
  (void)tag;
  return allocate(CALLER, n, align, 1);
}
void *_ZnamSt11align_val_tRKSt9nothrow_t(size_t n, size_t align,
                                         const void *tag) {
  (void)tag;
  return allocate(CALLER, n, align, 1);
}

// operator delete and delete[]: plain, sized, nothrow, and the aligned
// forms of each. The size argument is not trusted; the header has it.
void _ZdlPv(void *p) { deallocate(p, 0); }
void _ZdaPv(void *p) { deallocate(p, 0); }
void _ZdlPvm(void *p, size_t n) {
  (void)n;
  deallocate(p, 0);
}
void _ZdaPvm(void *p, size_t n) {
  (void)n;
  deallocate(p, 0);
}
void _ZdlPvRKSt9nothrow_t(void *p, const void *tag) {
  (void)tag;
  deallocate(p, 0);
}
void _ZdaPvRKSt9nothrow_t(void *p, const void *tag) {
  (void)tag;
  deallocate(p, 0);
}
void _ZdlPvSt11align_val_t(void *p, size_t align) { deallocate(p, align); }
void _ZdaPvSt11align_val_t(void *p, size_t align) { deallocate(p, align); }
void _ZdlPvmSt11align_val_t(void *p, size_t n, size_t align) {
  (void)n;
  deallocate(p, align);
}
void _ZdaPvmSt11align_val_t(void *p, size_t n, size_t align) {
  (void)n;
  deallocate(p, align);
}
void _ZdlPvSt11align_val_tRKSt9nothrow_t(void *p, size_t align,
                                         const void *tag) {
  (void)tag;
  deallocate(p, align);
}
void _ZdaPvSt11align_val_tRKSt9nothrow_t(void *p, size_t align,
                                         const void *tag) {
  (void)tag;
  deallocate(p, align);
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
    const unsigned long at_peak = s->stamp == peak_id ? s->at_peak : s->live;
    fprintf(out, "site %lu %lu %lu ", s->count, s->bytes, at_peak);
    for (int k = 0; k < depth && s->pcs[k] != NULL; ++k) {
      fprintf(out, k == 0 ? "%lx" : ",%lx", (unsigned long)s->pcs[k]);
    }
    fputc('\n', out);
  }
  fclose(out);
  fprintf(stderr,
          "newsites: %lu allocations, %lu bytes requested (%lu unrecorded), "
          "live-heap peak %lu bytes -> %s\n",
          total, total_bytes, dropped, peak_total, path);
}
