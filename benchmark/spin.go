package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// The idle spinner. On a virtual machine a core with nothing to run halts,
// and waking it costs an exit to the host whose price changes from minute to
// minute. A closed loop over loopback wakes a halted core four times per
// request, so the same binary read 0.27 to 0.39 ms at the median on read_cold
// from one run to the next, and 0.25 to 0.28 ms with the cores kept awake.
// The harness therefore runs one thread per core that spins under SCHED_IDLE:
// the scheduler gives it only the cycles nothing else wants and takes the core
// back the moment the server or a client can run.

// schedIdle is SCHED_IDLE of sched_setscheduler(2).
const schedIdle = 5

// spin is the spinner process: `benchmark -spin`. It does not return.
func spin() {
	started := make(chan error)
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			runtime.LockOSThread()
			var priority int32 // struct sched_param; must be 0 for SCHED_IDLE
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&priority)))
			if errno != 0 {
				started <- errno
				return
			}
			started <- nil
			for {
			}
		}()
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		// At normal priority the spinner would take half the machine from
		// what is being measured: better none than that.
		if err := <-started; err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: sched_setscheduler(SCHED_IDLE):", err)
			os.Exit(1)
		}
	}
	select {}
}

// startSpinner starts the spinner process and returns the function that
// stops it and waits for it to end.
func startSpinner() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-spin")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() {
		_ = cmd.Process.Kill() // already gone is fine
		_ = cmd.Wait()         // killed, so the status says nothing
	}, nil
}
