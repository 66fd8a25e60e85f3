package cluster

import (
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/store"
)

// runJobByHand drives every task of a pre-cut matmul job through one
// manual worker, calling before(i) ahead of the i-th Complete. It takes
// the task count from the status up front, so no call into the cluster
// follows the last Complete.
func runJobByHand(t *testing.T, cl *Cluster, id JobID, ref *matrix.Blocked, before func(i, total int)) {
	t.Helper()
	if _, err := cl.JoinWorker("w1", 0, 1); err != nil {
		t.Fatal(err)
	}
	st, err := cl.JobStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < st.TasksTotal; i++ {
		task, err := cl.NextTask("w1")
		if err != nil {
			t.Fatal(err)
		}
		before(i, st.TasksTotal)
		if err := cl.Complete("w1", task, refChunk(task, ref)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNoFsyncUnderSchedulerLock pins the point of group commit: every
// fsync the journal issues — for the accept, the chunk commits and the
// done record — runs while the scheduler lock is free. The Sync hook
// tries the lock for up to a second. Another goroutine that holds it
// (the last Complete, still finishing) lets go within moments; a lock
// held by the fsync's own caller can never be released while the hook
// runs, so TryLock keeps failing.
func TestNoFsyncUnderSchedulerLock(t *testing.T) {
	var cl *Cluster
	var fsyncs, underLock atomic.Int64
	jn, err := store.Open(t.TempDir(), store.Options{Sync: func(f *os.File) error {
		fsyncs.Add(1)
		deadline := time.Now().Add(time.Second)
		for !cl.mu.TryLock() {
			if time.Now().After(deadline) {
				underLock.Add(1)
				return f.Sync()
			}
			time.Sleep(100 * time.Microsecond)
		}
		cl.mu.Unlock()
		return f.Sync()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	c, a, b, ref := blockedInputs(t, 128, 128, 128, 32, 61)
	cl, _ = manualCluster(Config{Log: NewStoreLog(jn)})
	defer cl.Close()
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := fsyncs.Load(); n != 1 {
		t.Fatalf("%d fsyncs by the time SubmitJob returned, want 1 (the accept)", n)
	}
	done, err := cl.Done(id)
	if err != nil {
		t.Fatal(err)
	}
	runJobByHand(t, cl, id, matrix.Partition(ref, 32), func(int, int) {})
	<-done
	if n := fsyncs.Load(); n < 2 {
		t.Fatalf("%d fsyncs after the job finished, want the accept's and the done record's", n)
	}
	if n := underLock.Load(); n != 0 {
		t.Fatalf("%d of %d fsyncs ran with cl.mu held", n, fsyncs.Load())
	}
	chunks, doneRecs, err := ReplayChunkCommits(jn.Dir())
	if err != nil || len(chunks) == 0 || doneRecs != 1 {
		t.Fatalf("journal holds %d chunk commits, %d done records, err %v", len(chunks), doneRecs, err)
	}
}

// TestDoneAwaitsDurability: a job whose done record is written but not
// yet durable is not reported finished. While the fsync behind it is
// held, Done stays open, Wait blocks and AwaitQuiesce times out; the
// moment the fsync returns, all three release.
func TestDoneAwaitsDurability(t *testing.T) {
	gate := make(chan struct{})
	held := make(chan struct{}, 1)
	var armed atomic.Bool
	jn, err := store.Open(t.TempDir(), store.Options{Sync: func(f *os.File) error {
		if armed.Load() {
			select {
			case held <- struct{}{}:
			default:
			}
			select { // bounded, so an fsync under cl.mu fails the test instead of hanging it
			case <-gate:
			case <-time.After(5 * time.Second):
			}
		}
		return f.Sync()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	c, a, b, ref := blockedInputs(t, 128, 128, 128, 32, 67)
	cl, _ := manualCluster(Config{Log: NewStoreLog(jn)})
	defer cl.Close()
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	done, err := cl.Done(id)
	if err != nil {
		t.Fatal(err)
	}
	runJobByHand(t, cl, id, matrix.Partition(ref, 32), func(i, total int) {
		if i == total-1 {
			armed.Store(true) // hold the fsync the done record waits on
		}
	})
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("no fsync started after the job's last commit")
	}
	if st, _ := cl.JobStatus(id); st.State != Done {
		t.Fatalf("job state %v after its last commit, want Done", st.State)
	}
	waited := make(chan Status, 1)
	go func() {
		st, _ := cl.Wait(id)
		waited <- st
	}()
	select {
	case <-done:
		t.Fatal("Done closed while the done record's fsync was held")
	case <-waited:
		t.Fatal("Wait returned while the done record's fsync was held")
	case <-time.After(100 * time.Millisecond):
	}
	if cl.AwaitQuiesce(50 * time.Millisecond) {
		t.Fatal("AwaitQuiesce reported quiet while the done record's fsync was held")
	}
	close(gate)
	select {
	case st := <-waited:
		if st.State != Done {
			t.Fatalf("Wait = %+v, want Done", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return once the fsync was released")
	}
	<-done
	if !cl.AwaitQuiesce(10 * time.Second) {
		t.Fatal("AwaitQuiesce timed out after the done record became durable")
	}
}
