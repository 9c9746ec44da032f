package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent makes the kernel kill the child if the benchmark dies
// without stopping it, so no daemon outlives a run.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
