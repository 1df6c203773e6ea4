package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync/atomic"
	"syscall"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/dist"
	"sbgp/internal/sim"
)

// workerEnv marks a process the benchmark spawned from its own binary
// as a dist worker serving one coordinator session on stdin/stdout.
const workerEnv = "PERFBENCH_DIST_WORKER"

// isWorker reports whether this process is such a worker.
func isWorker() bool { return os.Getenv(workerEnv) == "1" }

// serveWorker serves the session and returns the process exit code.
func serveWorker() int {
	if err := dist.ServeConn(stdio{}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	return 0
}

type stdio struct{}

func (stdio) Read(p []byte) (int, error)  { return os.Stdin.Read(p) }
func (stdio) Write(p []byte) (int, error) { return os.Stdout.Write(p) }

// workerConn is a dist.Conn over one worker process's pipes that counts
// the bytes crossing it in each direction.
type workerConn struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	stdout  io.ReadCloser
	in, out *atomic.Int64
	done    chan struct{} // closed once cmd.Wait returns
}

func (c *workerConn) Read(p []byte) (int, error) {
	n, err := c.stdout.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *workerConn) Write(p []byte) (int, error) {
	n, err := c.stdin.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// Close shuts the pipes and reaps the process, killing it if it has not
// exited within five seconds. The coordinator may close a conn twice.
func (c *workerConn) Close() error {
	c.stdin.Close()
	c.stdout.Close()
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
	return nil
}

// maxRSSKiB is the reaped process's peak resident set in KiB.
func (c *workerConn) maxRSSKiB() int64 {
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}

// distRun is one coordinator over worker processes the benchmark
// spawned, with its transport counters.
type distRun struct {
	coord     *dist.Coordinator
	conns     []*workerConn
	in, out   atomic.Int64
	shake     time.Duration
	closed    bool
	workerKiB int64
}

// startDist spawns procs workers from the running binary and handshakes
// a coordinator for (g, cfg) over them.
func startDist(g *asgraph.Graph, cfg sim.Config, procs int, rec *recorder) (*distRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	d := &distRun{}
	tok := rec.begin("dist.spawn", -1)
	conns := make([]dist.Conn, 0, procs)
	for i := 0; i < procs; i++ {
		wc, err := spawnWorker(self, &d.in, &d.out)
		if err != nil {
			for _, c := range d.conns {
				c.Close()
			}
			return nil, err
		}
		d.conns = append(d.conns, wc)
		conns = append(conns, wc)
	}
	rec.end(tok)
	tok = rec.begin("dist.NewCoordinator", -1)
	d.coord, err = dist.NewCoordinator(g, cfg, conns, dist.Options{})
	d.shake = rec.end(tok)
	if err != nil {
		// NewCoordinator closed the conns.
		return nil, err
	}
	return d, nil
}

func spawnWorker(self string, in, out *atomic.Int64) (*workerConn, error) {
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dist worker: %w", err)
	}
	c := &workerConn{cmd: cmd, stdin: stdin, stdout: stdout, in: in, out: out, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// close stops the coordinator and its workers, and records the sum of
// the workers' peak resident sets.
func (d *distRun) close() {
	if d.closed {
		return
	}
	d.closed = true
	d.coord.Close()
	for _, c := range d.conns {
		c.Close() // reaps the process if the coordinator already closed it
		d.workerKiB += c.maxRSSKiB()
	}
}
