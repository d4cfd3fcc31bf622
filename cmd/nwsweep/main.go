// Command nwsweep evaluates the decoder design space over parameter grids
// and emits tidy CSV (or JSON/Markdown/text via -format) for downstream
// analysis — the batch scientific-tooling front end of the library.
//
// Usage:
//
//	nwsweep [-types tc,gc,bgc,hc,ahc] [-lengths 4,6,8,10]
//	        [-sigmas 0.05] [-margins 1.0] [-wires 20] [-workers W]
//	        [-format csv|json|md|text] [-timeout D]
//	        [-job] [-job-store DIR] [-chunk N] [-resume ID]
//	        [-peers ID=URL,...] [-node-id ID]
//	        [-metrics text|json|csv|md] [-metrics-out FILE] [-pprof DIR] > sweep.csv
//
// The grid is evaluated on W workers (0 = GOMAXPROCS); the output is
// bit-identical at every worker count. The design-point count goes to
// stderr so stdout stays a clean data stream.
//
// With -job the sweep runs through the internal/jobs checkpoint layer
// instead of in one synchronous pass: the grid is partitioned into
// chunks of -chunk points, each chunk is checkpointed as it completes,
// and with -job-store the checkpoints are durable — a killed run
// restarted as `nwsweep -resume ID -job-store DIR` serves the finished
// chunks from disk and computes only the remainder, with output
// byte-identical to the uninterrupted run. The job id and a final
// chunks=/computed=/resumed= accounting line go to stderr. Job-mode
// output renders the dataset form in every format (the historical
// fixed-precision CSV writer applies only to synchronous sweeps).
//
// With -peers ("b=http://host2:8607,...") each job chunk — a sweep
// request over the chunk's slice of the grid — routes to its key's owner
// on the fleet's consistent-hash ring (the nwserve nodes serve it on
// POST /peer/), with local compute as the fallback for any peer failure.
// Checkpointing stays in this process, so distributed output is
// byte-identical to a single-process run; a final ring accounting line
// goes to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"nwdec/internal/cli"
	"nwdec/internal/cluster"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/jobs"
	"nwdec/internal/nwerr"
	"nwdec/internal/sweep"
)

func main() {
	var (
		typesArg   = flag.String("types", "", "comma-separated code families (default: all)")
		lengthsArg = flag.String("lengths", "", "comma-separated code lengths (default: 4,6,8,10)")
		sigmasArg  = flag.String("sigmas", "", "comma-separated per-dose sigmas in volts (default: 0.05)")
		marginsArg = flag.String("margins", "", "comma-separated margin factors (default: 1.0)")
		wiresArg   = flag.String("wires", "", "comma-separated half-cave populations (default: 20)")
		jobMode    = flag.Bool("job", false, "run the sweep as a checkpointed async job")
		jobStore   = flag.String("job-store", "", "checkpoint directory for -job (empty = in-memory, no kill/restart durability)")
		chunk      = flag.Int("chunk", 0, "design points per job chunk (0 = jobs default)")
		resume     = flag.String("resume", "", "resume the job with this id from -job-store (implies -job; grid flags are ignored)")
		peersFlag  = flag.String("peers", "", "other fleet nodes as ID=URL,ID=URL: route job chunks to their ring owners (needs -job)")
		nodeID     = flag.String("node-id", "local", "this process's ring identity for -peers")
	)
	c := cli.Register("nwsweep", "csv")
	flag.Parse()
	ctx, cancel := c.Context()
	defer cancel()
	defer c.Close()

	grid := sweep.Grid{}
	var err error
	if grid.Types, err = cli.Types(*typesArg); err != nil {
		c.Exit(err)
	}
	if grid.Lengths, err = cli.Ints(*lengthsArg); err != nil {
		c.Exit(err)
	}
	if grid.HalfCaveWires, err = cli.Ints(*wiresArg); err != nil {
		c.Exit(err)
	}
	if grid.SigmaTs, err = cli.Floats(*sigmasArg); err != nil {
		c.Exit(err)
	}
	if grid.MarginFactors, err = cli.Floats(*marginsArg); err != nil {
		c.Exit(err)
	}

	if *jobMode || *resume != "" {
		if err := runJob(ctx, c, grid, *jobStore, *chunk, *resume, *peersFlag, *nodeID); err != nil {
			c.Exit(err)
		}
		return
	}
	if *peersFlag != "" {
		c.Exit(nwerr.Invalidf("nwsweep: -peers needs -job (chunks route over the ring only in job mode)"))
	}

	rows, err := sweep.RunWorkers(ctx, core.Config{}, grid, c.Workers)
	if err != nil {
		c.Exit(err)
	}
	// The CSV path keeps the historical fixed-precision writer so existing
	// pipelines see byte-identical output; the other formats render the
	// dataset form.
	if c.Format() == dataset.FormatCSV {
		if err := sweep.WriteCSV(os.Stdout, rows); err != nil {
			c.Exit(err)
		}
	} else {
		c.Emit(sweep.Dataset(rows))
	}
	fmt.Fprintf(os.Stderr, "nwsweep: %d design points\n", len(rows))
}

// runJob executes the sweep through the checkpointed job layer: submit
// (or resume) against the configured store, wait for the terminal state
// and emit the assembled dataset. The final accounting line distinguishes
// chunks computed this run from chunks resumed off checkpoints — the
// observable proof that a resumed run did not recompute finished work.
func runJob(ctx context.Context, c *cli.Common, grid sweep.Grid, storeDir string, chunk int, resume, peersArg, nodeID string) error {
	var store jobs.Store
	if storeDir != "" {
		fs, err := jobs.NewFSStore(storeDir)
		if err != nil {
			return err
		}
		store = fs
	} else {
		if resume != "" {
			return nwerr.Invalidf("nwsweep: -resume needs -job-store (an in-memory store has no checkpoints to resume)")
		}
		store = jobs.NewMemoryStore()
	}
	// With -peers, chunks route to their ring owners over a fresh local
	// engine (the fallback for any peer failure); checkpointing stays
	// here, so output is byte-identical to a single-process run.
	var (
		exec jobs.Executor
		ring *cluster.PeerBackend
	)
	if peersArg != "" {
		peers, err := cli.Peers(peersArg)
		if err != nil {
			return err
		}
		eng, err := engine.New(engine.Options{})
		if err != nil {
			return err
		}
		if ring, err = cluster.NewPeerBackend(eng, cluster.Options{Self: nodeID, Peers: peers}); err != nil {
			return err
		}
		exec = &jobs.EngineExecutor{Backend: ring, Workers: c.Workers}
	}
	runner := jobs.NewRunner(store, jobs.Options{Workers: c.Workers, Executor: exec, Node: nodeID})
	defer runner.Close()

	var (
		st  jobs.Status
		err error
	)
	if resume != "" {
		st, err = runner.Resume(ctx, resume)
	} else {
		st, err = runner.Submit(ctx, jobs.Spec{Grid: grid, Chunk: chunk})
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "nwsweep: job %s submitted: %d points in %d chunks\n", st.ID, st.Points, st.Chunks)

	st, err = runner.Wait(ctx, st.ID)
	if err != nil {
		return err
	}
	if st.State != jobs.StateComplete {
		err := fmt.Errorf("nwsweep: job %s ended %s: %s", st.ID, st.State, st.Error)
		if st.State == jobs.StateCanceled {
			return nwerr.Canceled(err)
		}
		return err
	}
	page, err := runner.Results(st.ID, 0, 0)
	if err != nil {
		return err
	}
	c.Emit(page.Dataset)
	fmt.Fprintf(os.Stderr, "nwsweep: job %s complete: chunks=%d computed=%d resumed=%d\n",
		st.ID, st.Chunks, st.Computed, st.Resumed)
	if ring != nil {
		rs := ring.Stats()
		fmt.Fprintf(os.Stderr, "nwsweep: ring %s: routed=%d peer_served=%d peer_errors=%d\n",
			nodeID, rs.Requests, rs.Served, rs.Errors)
	}
	return nil
}
