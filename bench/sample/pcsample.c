/* A program-counter sampler for one process (Linux, x86-64).

     pcsample OUT CMD [ARG...]

   runs CMD as a ptrace child, stops its main thread with SIGSTOP every
   millisecond, records its instruction pointer and resumes it.  OUT gets the child's /proc/PID/maps, read at the first sample
   (the program and its libraries are loaded by then), a line "--",
   then one hex address per sample; symbolize.exe turns it into shares
   by layer and by symbol.  Every stop costs the child time, so read
   the shares, not the wall time.  Other threads run unsampled. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <sys/ptrace.h>
#include <sys/syscall.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static void copy_maps(pid_t pid, FILE *out) {
  char path[64], buf[4096];
  size_t n;
  snprintf(path, sizeof path, "/proc/%d/maps", (int)pid);
  FILE *in = fopen(path, "r");
  if (in == NULL) return;
  while ((n = fread(buf, 1, sizeof buf, in)) > 0) fwrite(buf, 1, n, out);
  fclose(in);
  fputs("--\n", out);
}

int main(int argc, char **argv) {
  FILE *out = argc >= 3 ? fopen(argv[1], "w") : NULL;
  if (out == NULL) {
    fprintf(stderr, "usage: pcsample OUT CMD [ARG...]\n");
    return 2;
  }
  pid_t pid = fork();
  if (pid == 0) {
    ptrace(PTRACE_TRACEME, 0, NULL, NULL);
    execvp(argv[2], argv + 2);
    perror(argv[2]);
    _exit(127);
  }
  struct timespec period = { 0, 1000000 }; /* 1 ms */
  long samples = 0;
  int status, r = waitpid(pid, &status, 0); /* the stop at exec */
  while (r == pid && WIFSTOPPED(status)) {
    ptrace(PTRACE_CONT, pid, NULL, NULL);
    nanosleep(&period, NULL);
    syscall(SYS_tgkill, pid, pid, SIGSTOP);
    /* Wait for that stop, passing any other signal on to the child. */
    while ((r = waitpid(pid, &status, 0)) == pid && WIFSTOPPED(status)
           && WSTOPSIG(status) != SIGSTOP)
      ptrace(PTRACE_CONT, pid, NULL, (void *)(long)WSTOPSIG(status));
    struct user_regs_struct regs;
    if (r == pid && WIFSTOPPED(status)
        && ptrace(PTRACE_GETREGS, pid, NULL, &regs) == 0) {
      if (samples++ == 0) copy_maps(pid, out);
      fprintf(out, "%llx\n", regs.rip);
    }
  }
  fclose(out);
  fprintf(stderr, "pcsample: %ld samples\n", samples);
  return r == pid && WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}
