// Peak-memory gate for ctest: runs a baseline command and a command under
// test, each as a child process, and fails when the command's peak
// resident set (ru_maxrss from wait4) exceeds `max_ratio` times the
// baseline's.  Comparing two runs of the same binary keeps the bound
// meaningful across build types and sanitizers, which scale both peaks.
//
//   peak_rss_check MAX_RATIO BASELINE_CMD... -- CMD...
//
// Exit status: 0 within the bound, 1 over it, 2 on a usage error or when
// either child fails.  The children's stdout is discarded.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace {

/// Runs argv to completion; returns its peak RSS in KiB, or -1 on failure.
long run_peak_kib(std::vector<char*> argv) {
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return -1;
  }
  if (pid == 0) {
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDOUT_FILENO);
    execvp(argv[0], argv.data());
    std::perror(argv[0]);
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid) {
    std::perror("wait4");
    return -1;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "peak_rss_check: '%s' failed (status %d)\n", argv[0],
                 status);
    return -1;
  }
  return ru.ru_maxrss;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> base;
  std::vector<char*> cmd;
  bool after_sep = false;
  for (int i = 2; i < argc; ++i) {
    if (!after_sep && std::strcmp(argv[i], "--") == 0) {
      after_sep = true;
      continue;
    }
    (after_sep ? cmd : base).push_back(argv[i]);
  }
  const double max_ratio = argc > 1 ? std::atof(argv[1]) : 0.0;
  if (max_ratio <= 0.0 || base.empty() || cmd.empty()) {
    std::fprintf(stderr,
                 "usage: %s MAX_RATIO BASELINE_CMD... -- CMD...\n", argv[0]);
    return 2;
  }
  const long base_kib = run_peak_kib(base);
  const long cmd_kib = run_peak_kib(cmd);
  if (base_kib <= 0 || cmd_kib <= 0) return 2;
  const double ratio =
      static_cast<double>(cmd_kib) / static_cast<double>(base_kib);
  std::printf("baseline peak %.1f MiB, run peak %.1f MiB, ratio %.2f "
              "(limit %.2f)\n",
              static_cast<double>(base_kib) / 1024.0,
              static_cast<double>(cmd_kib) / 1024.0, ratio, max_ratio);
  return ratio <= max_ratio ? 0 : 1;
}
