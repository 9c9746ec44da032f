//go:build !linux

package main

import "os/exec"

// dieWithParent has no portable equivalent off Linux; daemons are still
// stopped on every normal exit path.
func dieWithParent(*exec.Cmd) {}
