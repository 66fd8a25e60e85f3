// Command mwmaster runs one distributed matrix product: it serves
// C ← C + A·B as a one-job cluster (the same scheduler and wire protocol
// as mmserve), waits for -workers mwworker processes to register, runs
// the job with the demand-driven one-port protocol, shuts the workers
// down, verifies the result against a local reference when -verify is
// set, and prints a summary line.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/pkg/matmul"
)

func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mwmaster: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	workers := flag.Int("workers", 2, "number of workers to wait for")
	n := flag.Int("n", 512, "square matrix dimension (divisible by q)")
	q := flag.Int("q", 64, "block size")
	memMB := flag.Int("mem", 64, "per-worker memory budget in MiB (determines µ)")
	verify := flag.Bool("verify", true, "check the product against a local reference")
	flag.Parse()

	if flag.NArg() > 0 {
		fatalUsage("unexpected arguments: %v", flag.Args())
	}
	if *workers < 1 {
		fatalUsage("-workers must be ≥ 1, got %d", *workers)
	}
	if *q < 1 {
		fatalUsage("-q must be ≥ 1, got %d", *q)
	}
	if *n < *q || *n%*q != 0 {
		fatalUsage("-n %d must be a positive multiple of -q %d", *n, *q)
	}
	if *memMB < 1 {
		fatalUsage("-mem must be ≥ 1 MiB, got %d", *memMB)
	}
	m := matmul.MemoryBlocks(int64(*memMB)<<20, *q)
	mu := matmul.MuOverlap(m)
	if mu < 1 {
		fatalUsage("-mem %d MiB too small for q=%d (needs µ²+4µ ≤ m)", *memMB, *q)
	}

	ad := matmul.NewDense(*n, *n)
	bd := matmul.NewDense(*n, *n)
	cd := matmul.NewDense(*n, *n)
	matmul.DeterministicFill(ad, 1)
	matmul.DeterministicFill(bd, 2)
	matmul.DeterministicFill(cd, 3)
	var ref *matmul.Dense
	if *verify {
		ref = cd.Clone()
		matmul.MulReference(ref, ad, bd)
	}

	a := matmul.Partition(ad, *q)
	b := matmul.Partition(bd, *q)
	c := matmul.Partition(cd, *q)

	fmt.Printf("mwmaster: listening on %s for %d workers (n=%d q=%d µ=%d)\n", *addr, *workers, *n, *q, mu)
	res, err := matmul.ServeTCP(c, a, b, *addr, *workers, mu)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	elapsed := time.Duration(res.Makespan * float64(time.Second))
	fmt.Printf("mwmaster: done in %v, %d blocks through the port\n", elapsed, res.Blocks)
	if *verify {
		got := c.Assemble()
		diff := got.MaxDiff(ref)
		fmt.Printf("mwmaster: max |C - ref| = %.3g\n", diff)
		if diff > 1e-9 {
			log.Fatal("verification FAILED")
		}
		fmt.Println("mwmaster: verification OK")
	}
}
