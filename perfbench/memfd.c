/* Anonymous tmpfs files for the benchmark's store: memfd_create(2).
   fsync on such a file is a no-op, so commits still issue their fsync
   but no device cost is measured, and nothing is written to disk. */

#define _GNU_SOURCE
#include <sys/mman.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/fail.h>

value perfbench_memfd_create(value name)
{
  int fd = memfd_create(String_val(name), MFD_CLOEXEC);
  if (fd < 0) caml_failwith("memfd_create");
  return Val_int(fd);
}

value perfbench_close(value fd)
{
  close(Int_val(fd));
  return Val_unit;
}
