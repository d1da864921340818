package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// On a shared host the speed of the machine drifts by tens of percent over
// seconds to minutes, and the drift moves every wall and CPU time alike. So
// each timed op and each set-up runs between two timings of a fixed
// calibration kernel, and its times are reported in reference seconds: the
// measured time scaled by referenceKernelS over the mean of the two kernel
// times. The kernel uses no repository code, so a change to the simulator
// moves the op and not the kernel. It runs in a helper process of its own,
// so its 64 MiB working set stays out of the measured process's memory and
// GC.

// referenceKernelS is the kernel time that reference seconds assume, close
// to its time on the machine the baseline numbers were taken on.
const referenceKernelS = 0.020

// kernelBits sizes the kernel's table: 2^24 uint32 are 64 MiB, far beyond
// the private caches, so its random updates wait on the memory system as
// the simulator's graph and heap accesses do.
const kernelBits = 24

// kernel runs a fixed, allocation-free mix of random updates of table and an
// in-place sort of buf, and returns its wall time in seconds.
func kernel(table, buf []uint32) float64 {
	start := time.Now()
	x, acc := uint32(1), uint32(0)
	for i := 0; i < 1<<21; i++ {
		x = x*1664525 + 1013904223
		j := x >> (32 - kernelBits) // the LCG's high bits are its random ones
		acc += table[j]
		table[j] = acc ^ x
	}
	for i := range buf {
		x = x*1664525 + 1013904223
		buf[i] = x
	}
	slices.Sort(buf)
	table[0] += acc
	return time.Since(start).Seconds()
}

// serveKernel is the helper process: for every line on in it runs the kernel
// once and writes the seconds it took as a line on out, until in closes.
func serveKernel(in io.Reader, out io.Writer) error {
	table, buf := make([]uint32, 1<<kernelBits), make([]uint32, 1<<15)
	kernel(table, buf) // fault the table in before the first timing
	sc := bufio.NewScanner(in)
	w := bufio.NewWriter(out)
	for sc.Scan() {
		fmt.Fprintf(w, "%g\n", kernel(table, buf))
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return sc.Err()
}

// hostClock is the measuring side's handle on the kernel helper process.
type hostClock struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

// startHostClock starts the helper: this executable with -kernel.
func startHostClock() (*hostClock, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-kernel")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the kernel helper: %w", err)
	}
	return &hostClock{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// kernel times one kernel run in the helper; a nil clock times nothing and
// reads 0, which leaves times unscaled.
func (h *hostClock) kernel() (float64, error) {
	if h == nil {
		return 0, nil
	}
	if _, err := io.WriteString(h.in, "\n"); err != nil {
		return 0, fmt.Errorf("kernel helper: %w", err)
	}
	if !h.out.Scan() {
		return 0, fmt.Errorf("kernel helper exited: %v", h.out.Err())
	}
	return strconv.ParseFloat(h.out.Text(), 64)
}

// stop ends the helper and waits for it to exit.
func (h *hostClock) stop() error {
	if h == nil {
		return nil
	}
	h.in.Close()
	return h.cmd.Wait()
}

// factor turns a time measured between kernel runs of mean time kernelS
// into reference seconds; an untimed kernel (0) leaves it unscaled.
func factor(kernelS float64) float64 {
	if kernelS <= 0 {
		return 1
	}
	return referenceKernelS / kernelS
}
