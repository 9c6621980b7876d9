/* Count heap allocations of a process: preload this object and it prints,
 * when the process exits, how many times malloc / realloc / calloc were
 * called and how many bytes they asked for.
 *
 *   gcc -O2 -shared -fPIC -o count_mallocs.so scripts/count_mallocs.c
 *   LD_PRELOAD=./count_mallocs.so <binary> ...   # "mallocs N bytes B" on stderr
 *
 * Run a benchmark workload at two run lengths and divide the difference in
 * mallocs by the difference in queries: set-up cancels, and what is left is
 * the allocations per query, a count. */
#include <stdio.h>
#include <stddef.h>

extern void *__libc_malloc(size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_calloc(size_t, size_t);

static unsigned long mallocs, bytes;

void *malloc(size_t n) { __atomic_fetch_add(&mallocs, 1, __ATOMIC_RELAXED); __atomic_fetch_add(&bytes, n, __ATOMIC_RELAXED); return __libc_malloc(n); }
void *realloc(void *p, size_t n) { __atomic_fetch_add(&mallocs, 1, __ATOMIC_RELAXED); __atomic_fetch_add(&bytes, n, __ATOMIC_RELAXED); return __libc_realloc(p, n); }
void *calloc(size_t k, size_t n) { __atomic_fetch_add(&mallocs, 1, __ATOMIC_RELAXED); __atomic_fetch_add(&bytes, k * n, __ATOMIC_RELAXED); return __libc_calloc(k, n); }

__attribute__((destructor)) static void report(void) {
    fprintf(stderr, "mallocs %lu bytes %lu\n", mallocs, bytes);
}
