package experiments

import (
	"strings"
	"testing"
	"time"

	"rakis/internal/sys"
	"rakis/internal/workloads"
)

// muteAfter is a load-generator thread whose SendTo goes silent after
// left datagrams: a wire that stops delivering mid-stream, which is what
// a denial-of-service chaos profile does to curl's file server.
type muteAfter struct {
	sys.Sys
	left int
}

func (m *muteAfter) SendTo(fd int, p []byte, dst sys.Addr) (int, error) {
	if m.left == 0 {
		return len(p), nil
	}
	m.left--
	return m.Sys.SendTo(fd, p, dst)
}

// Curl's established stream has no loss recovery, and until its receive
// was bounded a server that went silent mid-stream left the client
// blocked for ever (TestChaosMatrix/shardq hung to the package timeout
// about one run in six). It must give up inside its stall bound.
func TestCurlStallIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out curl's stall window")
	}
	w, err := NewWorld(Options{Env: RakisSGX})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	env := w.WorkloadEnv()
	env.ClientThread = func() sys.Sys { return &muteAfter{Sys: w.ClientThread(), left: 100} }
	data := workloads.PrepareMcryptInput(1 << 20)

	done := make(chan error, 1)
	go func() {
		_, err := workloads.Curl(env, workloads.CurlParams{Path: "/f"},
			func(string) ([]byte, error) { return data, nil })
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "stalled") {
			t.Fatalf("curl on a wire that went silent: err = %v, want a stall", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("curl still blocked 20 s after its server went silent")
	}
}
