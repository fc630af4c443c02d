// Lint fixture: process control anywhere in the library must trip
// lint-process-control. Never compiled.
#include <csignal>
#include <unistd.h>
#include <sys/wait.h>

namespace sadapt::adapt {

int
sneakChildProcess()
{
    const int pid = fork(); // lint-process-control (fork)
    if (pid == 0)
        execl("/bin/true", "true", nullptr); // lint-process-control (exec)
    ::kill(pid, SIGTERM); // lint-process-control (kill)
    int wstatus = 0;
    waitpid(pid, &wstatus, 0); // lint-process-control (waitpid)
    return wstatus;
}

} // namespace sadapt::adapt
