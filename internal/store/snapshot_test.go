package store

import (
	"os"
	"path/filepath"
	"testing"

	"ipa/internal/wan"
)

func TestSnapshotRoundTrip(t *testing.T) {
	sim, c := newTestCluster(11)
	east := c.Replica(wan.USEast)
	tx := east.Begin()
	AWSetAt(tx, "players").Add("alice", "profile")
	AWSetAt(tx, "players").Add("bob", "")
	CounterAt(tx, "budget").Add(40)
	tx.Commit()
	tx = east.Begin()
	AWSetAt(tx, "players").Remove("bob")
	tx.Commit()
	sim.Run()

	data, vc, err := east.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !vc.LEq(east.Clock()) || !east.Clock().LEq(vc) {
		t.Fatalf("snapshot vector %s != replica clock %s", vc, east.Clock())
	}

	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Replica != wan.USEast {
		t.Fatalf("snapshot replica = %q", snap.Replica)
	}

	// Restore into a fresh replica (a separate cluster) and read back.
	_, c2 := newTestCluster(12)
	fresh := c2.Replica(wan.USEast)
	fresh.RestoreSnapshot(snap)
	rtx := fresh.Begin()
	set := AWSetAt(rtx, "players")
	if !set.Contains("alice") {
		t.Fatal("restored replica lost alice")
	}
	if p, _ := set.Payload("alice"); p != "profile" {
		t.Fatalf("restored payload = %q", p)
	}
	if set.Contains("bob") {
		t.Fatal("restored replica resurrected a removed element")
	}
	if v := CounterAt(rtx, "budget").Value(); v != 40 {
		t.Fatalf("restored counter = %d, want 40", v)
	}
	rtx.Commit()
	if got := fresh.Clock(); !vc.LEq(got) {
		t.Fatalf("restored clock %s does not cover snapshot vector %s", got, vc)
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	sim, c := newTestCluster(13)
	east := c.Replica(wan.USEast)
	tx := east.Begin()
	AWSetAt(tx, "s").Add("x", "")
	tx.Commit()
	sim.Run()
	data, _, err := east.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	for name, mangle := range map[string]func([]byte) []byte{
		"flip-body-byte": func(d []byte) []byte { d[len(d)-1] ^= 0xFF; return d },
		"flip-crc":       func(d []byte) []byte { d[5] ^= 0xFF; return d },
		"bad-magic":      func(d []byte) []byte { d[0] = 'X'; return d },
		"bad-version":    func(d []byte) []byte { d[4] = 99; return d },
		"truncated":      func(d []byte) []byte { return d[:len(d)/2] },
		"trailing":       func(d []byte) []byte { return append(d, 0xAB) },
	} {
		t.Run(name, func(t *testing.T) {
			bad := mangle(append([]byte(nil), data...))
			if _, err := DecodeSnapshot(bad); err == nil {
				t.Fatal("corrupt snapshot decoded without error")
			}
		})
	}
}

func TestSnapshotFileAtomicityAndFallback(t *testing.T) {
	sim, c := newTestCluster(14)
	east := c.Replica(wan.USEast)
	tx := east.Begin()
	AWSetAt(tx, "s").Add("x", "")
	tx.Commit()
	sim.Run()
	data, vc, err := east.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := WriteSnapshotFile(dir, data); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshotFile(dir)
	if err != nil || snap == nil {
		t.Fatalf("snapshot file did not read back: %v", err)
	}
	if !snap.VC.LEq(vc) || !vc.LEq(snap.VC) {
		t.Fatalf("read-back vector %s, want %s", snap.VC, vc)
	}
	// A leftover temp file (crash between write and rename) is invisible.
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile+".tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, err := ReadSnapshotFile(dir); err != nil || snap == nil {
		t.Fatalf("temp-file junk broke the committed snapshot: %v", err)
	}
	// In-place corruption is an error, not "no snapshot": the log may
	// already be truncated below it, so recovery has nothing to fall back
	// to.
	raw, err := os.ReadFile(filepath.Join(dir, SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, err := ReadSnapshotFile(dir); err == nil || snap != nil {
		t.Fatalf("corrupt snapshot file: got %v, %v; want an error", snap, err)
	}
	// A missing directory is simply "no snapshot".
	if snap, err := ReadSnapshotFile(filepath.Join(dir, "nope")); err != nil || snap != nil {
		t.Fatalf("missing dir: got %v, %v; want no snapshot and no error", snap, err)
	}
}

// The snapshot vector counts exactly the transactions in the image: a
// capture concurrent with commits must not tear (clock ahead of state or
// vice versa). Hammer captures while another goroutine commits.
func TestSnapshotConsistentCutUnderCommits(t *testing.T) {
	sim, c := newTestCluster(15)
	east := c.Replica(wan.USEast)
	for i := 0; i < 50; i++ {
		tx := east.Begin()
		CounterAt(tx, "n").Add(1)
		tx.Commit()
		data, vc, err := east.CaptureSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		// Own-origin events committed = counter increments applied
		// locally; the cut must agree with itself.
		_, c2 := newTestCluster(16)
		fresh := c2.Replica(wan.USEast)
		fresh.RestoreSnapshot(snap)
		rtx := fresh.Begin()
		got := CounterAt(rtx, "n").Value()
		rtx.Commit()
		if got != int64(i+1) {
			t.Fatalf("iter %d: snapshot holds counter %d with vector %s", i, got, vc)
		}
	}
	sim.Run()
}
