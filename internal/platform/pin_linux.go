//go:build linux

package platform

import (
	"syscall"
	"unsafe"
)

// PinThread binds the calling OS thread to logical CPU cpu via
// sched_setaffinity(2). Callers must hold the thread with
// runtime.LockOSThread first, or the Go scheduler may migrate the goroutine
// off the pinned thread. Pinning keeps each output-layer shard's ∇h rows and
// LSH tables resident in one core's private caches instead of bouncing
// between cores; it is a performance hint — on failure (restricted cpusets,
// seccomp) the caller should proceed unpinned.
func PinThread(cpu int) error {
	if cpu < 0 || cpu >= 1024 {
		return syscall.EINVAL
	}
	// A CPU_SET mask large enough for 1024 CPUs (the glibc default).
	var mask [128]byte
	mask[cpu>>3] = 1 << (uint(cpu) & 7)
	_, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETAFFINITY,
		0, uintptr(len(mask)), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return errno
	}
	return nil
}
