package rdb

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The crash-torture suite SIGKILLs a child process mid-write-storm and
// verifies, generation after generation over the same directory, that
// every commit the child acknowledged survives recovery and that no
// partial transaction is ever visible. The child writes each commit to
// two tables atomically, so a torn transaction would show up as a row
// present in one table and missing from the other.

// TestCrashChildHelper is the child body; it only runs when the parent
// re-executes the test binary with RDB_CRASH_DIR set. It commits pairs
// forever, acknowledging each durable commit on stdout, until killed.
func TestCrashChildHelper(t *testing.T) {
	dir := os.Getenv("RDB_CRASH_DIR")
	if dir == "" {
		t.Skip("not a crash child")
	}
	// Tiny checkpoint threshold: the kill lands around page-file
	// rewrites and WAL resets, not just plain appends.
	db, err := OpenDurableOpts(dir, DurableOptions{CheckpointBytes: 1 << 14})
	if err != nil {
		fmt.Printf("CHILD_ERR open: %v\n", err)
		os.Exit(3)
	}
	if len(db.TableNames()) == 0 {
		for _, sql := range []string{
			`CREATE TABLE log_a (n INTEGER PRIMARY KEY, data TEXT NOT NULL)`,
			`CREATE TABLE log_b (n INTEGER PRIMARY KEY, data TEXT NOT NULL)`,
		} {
			if _, err := db.Exec(sql); err != nil {
				fmt.Printf("CHILD_ERR ddl: %v\n", err)
				os.Exit(3)
			}
		}
	}
	start := int64(1)
	row, err := db.QueryRow(`SELECT n FROM log_a ORDER BY n DESC LIMIT 1`)
	if err != nil {
		fmt.Printf("CHILD_ERR resume: %v\n", err)
		os.Exit(3)
	}
	if row != nil {
		start = row["n"].(int64) + 1
	}
	for n := start; ; n++ {
		tx := db.Begin()
		data := fmt.Sprintf("payload-%d", n)
		if _, err := tx.Exec(`INSERT INTO log_a (n, data) VALUES (?, ?)`, n, data); err != nil {
			fmt.Printf("CHILD_ERR insert a: %v\n", err)
			os.Exit(3)
		}
		if _, err := tx.Exec(`INSERT INTO log_b (n, data) VALUES (?, ?)`, n, data); err != nil {
			fmt.Printf("CHILD_ERR insert b: %v\n", err)
			os.Exit(3)
		}
		if err := tx.Commit(); err != nil {
			fmt.Printf("CHILD_ERR commit: %v\n", err)
			os.Exit(3)
		}
		// Commit returned: the pair is on stable storage. Acknowledge.
		fmt.Printf("ACK %d\n", n)
	}
}

func TestCrashTortureSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("crash torture spawns child processes")
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(0x5EED))
	var lastAck int64

	for gen := 0; gen < 3; gen++ {
		acked, err := runCrashChild(t, dir, 5+rng.Intn(60))
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		if acked > 0 {
			lastAck = acked
		}

		db, err := OpenDurable(dir)
		if err != nil {
			t.Fatalf("generation %d: reopen after kill: %v", gen, err)
		}
		a, err := db.Query(`SELECT n, data FROM log_a ORDER BY n`)
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		b, err := db.Query(`SELECT n, data FROM log_b ORDER BY n`)
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		// Atomicity: the two tables must hold the identical commit set.
		if rowsExact(a) != rowsExact(b) {
			t.Fatalf("generation %d: torn transactions:\nlog_a:\n%s\nlog_b:\n%s", gen, rowsExact(a), rowsExact(b))
		}
		// Durability: every acknowledged commit is present, contiguous
		// from 1, with its exact payload. Commits beyond the last ack
		// are allowed (durable but killed before the ack line flushed).
		if int64(a.Len()) < lastAck {
			t.Fatalf("generation %d: %d acked commits, only %d recovered", gen, lastAck, a.Len())
		}
		for i, row := range boxed(a) {
			n, ok := row[0].(int64)
			if !ok || n != int64(i+1) {
				t.Fatalf("generation %d: commit sequence has a hole at %d: %v", gen, i+1, row[0])
			}
			if row[1] != fmt.Sprintf("payload-%d", n) {
				t.Fatalf("generation %d: commit %d corrupted: %q", gen, n, row[1])
			}
		}
		lastAck = int64(a.Len())
		if err := db.Close(); err != nil {
			t.Fatalf("generation %d: close: %v", gen, err)
		}
	}
}

// runCrashChild re-executes the test binary as a crash child against
// dir, SIGKILLs it after killAfter acknowledgements, and returns the
// highest commit the child acknowledged before dying.
func runCrashChild(t *testing.T, dir string, killAfter int) (int64, error) {
	t.Helper()
	return runCrashChildNamed(t, dir, killAfter, "TestCrashChildHelper", "RDB_CRASH_DIR")
}

// runCrashChildNamed is the generic child runner: helper selects the
// child test body, envKey the directory variable it watches for.
func runCrashChildNamed(t *testing.T, dir string, killAfter int, helper, envKey string) (int64, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run="+helper+"$", "-test.v")
	cmd.Env = append(os.Environ(), envKey+"="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	cmd.Stderr = nil
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	// Watchdog: a hung child must not hang the suite.
	watchdog := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer watchdog.Stop()

	var acked int64
	acks := 0
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "CHILD_ERR") {
			cmd.Process.Kill()
			cmd.Wait()
			return acked, fmt.Errorf("child failed: %s", line)
		}
		if rest, ok := strings.CutPrefix(line, "ACK "); ok {
			n, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				continue
			}
			acked = n
			if acks++; acks >= killAfter {
				// Kill mid-storm: the child is already inside its next
				// commit by the time the signal lands.
				cmd.Process.Kill()
				break
			}
		}
	}
	for sc.Scan() { // drain until the pipe closes
	}
	cmd.Wait()
	return acked, nil
}
