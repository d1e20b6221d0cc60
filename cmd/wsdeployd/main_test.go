package main

import (
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildDaemon compiles this command into a temporary directory.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "wsdeployd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestStartupOrder covers bind, recover, serve: a taken -addr fails the
// start before anything exists under -data, and a daemon that binds
// answers its first /v1/readyz with 200 — requests made during
// recovery wait in the accept backlog instead of being refused or
// told 503.
func TestStartupOrder(t *testing.T) {
	bin := buildDaemon(t)

	t.Run("taken addr", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		data := filepath.Join(t.TempDir(), "data")
		out, err := exec.Command(bin, "-addr", ln.Addr().String(), "-data", data).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("daemon on a taken address: err %v, want a non-zero exit\n%s", err, out)
		}
		if !strings.Contains(string(out), "listen") {
			t.Fatalf("exit does not name the listen failure:\n%s", out)
		}
		if _, err := os.Stat(data); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("daemon touched -data before binding: stat %v", err)
		}
	})

	t.Run("first answer ready", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		cmd := exec.Command(bin, "-addr", addr, "-data", filepath.Join(t.TempDir(), "data"), "-fsync", "always")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			_ = cmd.Process.Signal(syscall.SIGTERM)
			_ = cmd.Wait()
		}()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get("http://" + addr + "/v1/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("first /v1/readyz answer = %d, want 200", resp.StatusCode)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon never answered: %v", err)
			}
			time.Sleep(time.Millisecond) // not bound yet: connection refused
		}
	})
}
