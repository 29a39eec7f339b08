package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os/exec"
	"syscall"
	"time"
)

// server is one running ratsd process.
type server struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	exited chan struct{} // closed once cmd.Wait has returned
	err    error         // cmd.Wait's result, valid after exited is closed
}

// start launches ratsd on a free loopback port and returns once the port
// accepts connections. On error the process has been stopped and reaped.
func start(bin string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s := &server{url: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr, "-log-level", "warn")
	s.cmd.Stderr = &s.stderr
	// The kernel kills ratsd if the benchmark dies first, so an
	// interrupted run leaves no server behind. (Pdeathsig is Linux-only.)
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ratsd: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()

	// Poll the port, not an endpoint: a refused dial returns at once, so
	// the wait adds at most a tenth of a millisecond to the set-up time.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if conn, err := net.Dial("tcp", addr); err == nil {
			conn.Close()
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("ratsd exited before serving: %v\n%s", s.err, s.stderr.String())
		case <-time.After(100 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, errors.New("ratsd did not listen within 30s")
		}
	}
}

// stop asks ratsd to drain and exit, and waits for it. A process that does
// not exit cleanly within 30 s is killed and reported.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("signalling ratsd: %w", err)
	}
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("ratsd did not drain within 30s")
	}
	if s.err != nil {
		return fmt.Errorf("ratsd exited with %v\n%s", s.err, s.stderr.String())
	}
	return nil
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only if the process is already gone
	<-s.exited
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
