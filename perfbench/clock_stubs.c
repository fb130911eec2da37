/* Monotonic wall clock and process CPU time, in nanoseconds.  The
   unboxed entry points allocate nothing, so taking a reading never
   perturbs the allocation counts the benchmark measures. */

#define _POSIX_C_SOURCE 199309L
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

static double read_ns(clockid_t id)
{
  struct timespec ts;
  clock_gettime(id, &ts);
  return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

double pb_mono_ns(value unit)
{
  (void)unit;
  return read_ns(CLOCK_MONOTONIC);
}

double pb_cpu_ns(value unit)
{
  (void)unit;
  return read_ns(CLOCK_PROCESS_CPUTIME_ID);
}

value pb_mono_ns_byte(value unit)
{
  return caml_copy_double(pb_mono_ns(unit));
}

value pb_cpu_ns_byte(value unit)
{
  return caml_copy_double(pb_cpu_ns(unit));
}
