// Cluster demo: the same synopsis job executed by real TCP workers. A
// coordinator and three worker processes (here: goroutines speaking actual
// TCP on localhost) split a file-backed dataset into error-tree-aligned
// chunks, run the CON map tasks remotely, and the driver merges the
// significance streams — the paper's Appendix A.1 pipeline end to end.
// The result is verified against the in-process engine.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"dwmaxerr"
	"dwmaxerr/internal/dataset"
	"dwmaxerr/internal/dist"
	"dwmaxerr/internal/mr"
)

func main() {
	const (
		n       = 1 << 14
		budget  = n / 8
		subtree = 1 << 10
		workers = 3
	)
	// Stage the dataset on the "shared filesystem".
	dir, err := os.MkdirTemp("", "dwmaxerr-cluster")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "taxi.bin")
	data := dataset.NYCTLike{}.Generate(n, 99)
	if err := dataset.SaveBinary(path, data); err != nil {
		log.Fatal(err)
	}

	// Coordinator + workers over real TCP.
	coord, err := mr.NewCoordinator("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	stop := make(chan struct{})
	defer close(stop)
	for i := 0; i < workers; i++ {
		name := fmt.Sprintf("worker-%d", i)
		go func() {
			if err := mr.Serve(coord.Addr(), name, stop); err != nil {
				log.Printf("%s: %v", name, err)
			}
		}()
	}
	if err := coord.WaitForWorkers(workers, 5*time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster up: coordinator %s, %d workers\n", coord.Addr(), workers)

	// The coordinator is just the engine: the same dist.CON the in-process
	// run below uses. The source being a file every worker can open is what
	// lets remote workers rebuild its jobs.
	src, err := dist.NewFileSource(path)
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	rep, err := dist.CON(src, budget, dist.Config{Engine: coord, SubtreeLeaves: subtree})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster CON: %d map tasks, %.1f KiB shuffled, %v wall\n",
		rep.Jobs[0].MapTasks, float64(rep.Jobs[0].ShuffleBytes)/1024, time.Since(t0).Round(time.Millisecond))

	// Cross-check against the in-process engine.
	local, err := dwmaxerr.BuildDistributed(dwmaxerr.SliceSource(data), dwmaxerr.CON,
		dwmaxerr.Options{Budget: budget, SubtreeLeaves: subtree})
	if err != nil {
		log.Fatal(err)
	}
	if rep.Synopsis.Size() != local.Synopsis.Size() {
		log.Fatalf("cluster size %d != local %d", rep.Synopsis.Size(), local.Synopsis.Size())
	}
	lm := local.Synopsis.Map()
	for _, term := range rep.Synopsis.Terms {
		if lm[term.Index] != term.Value {
			log.Fatalf("coefficient %d differs: %g vs %g", term.Index, term.Value, lm[term.Index])
		}
	}
	errs, _ := dwmaxerr.Evaluate(rep.Synopsis, data, 1)
	fmt.Printf("cluster and local synopses identical (%d terms); max_abs=%.1f L2=%.2f ✓\n",
		rep.Synopsis.Size(), errs.MaxAbs, errs.L2)
}
