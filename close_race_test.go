package ipa_test

// The Close-ordering regression test for the serving path (the PR 3
// Close/DropConnections race class, one layer up): closing an ipa.DB
// while network sessions still have CALLs in flight — server handlers
// holding Begin-opened transactions — must not race, panic, or deadlock.
// In-flight calls may fail, but the process stays sound and a subsequent
// server Shutdown completes. Run under -race (CI's race job does).

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipa"
	"ipa/internal/runtime"
	"ipa/internal/server"
)

func TestDBCloseWithInflightServerCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("netrepl cluster churn in -short")
	}
	for round := 0; round < 3; round++ {
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			db, err := ipa.Open(ipa.ClusterOptions{Backend: ipa.BackendNet})
			if err != nil {
				t.Fatal(err)
			}
			srv := server.New(db.Cluster().(*runtime.NetCluster), server.Config{DrainTimeout: 10 * time.Second})
			src := "spec closerace\noperation add(Item: x) {\n    p(x) := true\n}\n"
			if _, err := srv.Mount(src, false); err != nil {
				db.Close()
				t.Fatal(err)
			}
			if err := srv.Start("127.0.0.1:0"); err != nil {
				db.Close()
				t.Fatal(err)
			}

			// Clients hammer CALLs for the whole test; after Close they
			// must see clean errors or closed connections, never hangs.
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for seq := 0; !stop.Load(); seq++ {
						c, err := server.Dial(srv.Addr(), time.Second)
						if err != nil {
							time.Sleep(time.Millisecond)
							continue
						}
						for i := 0; i < 64 && !stop.Load(); i++ {
							rp, err := c.Do("CALL", "closerace", "add", fmt.Sprintf("w%d-%d-%d", w, seq, i))
							if err != nil {
								break
							}
							if rp.Kind == '-' && !strings.HasPrefix(rp.Str, "ERR") && !strings.HasPrefix(rp.Str, "PRECONDITION") {
								t.Errorf("unexpected reply: %s", rp.Str)
								break
							}
						}
						c.Close()
					}
				}(w)
			}

			// Let calls get in flight, then yank the cluster out from
			// under the server — the bug class under test. Bound it: a
			// deadlocked Close is a failure, not a hang.
			time.Sleep(50 * time.Millisecond)
			closed := make(chan error, 1)
			go func() { closed <- db.Close() }()
			select {
			case <-closed:
			case <-time.After(30 * time.Second):
				t.Fatal("db.Close deadlocked with in-flight server calls")
			}

			// The server must still drain cleanly after the rug-pull.
			done := make(chan error, 1)
			go func() { done <- srv.Shutdown() }()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("shutdown after close: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("server Shutdown deadlocked after db.Close")
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}
