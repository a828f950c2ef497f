// Command permbench regenerates the paper's evaluation tables (Figure 6:
// TPC-H strategies across database sizes; Figures 7–9: synthetic sweeps)
// and the two executor comparisons of this reproduction's execution layer:
// the sublink-memo modes table and the streaming-vs-materializing table.
// Figures 6–9 and the modes table run on the sequential reference executor.
//
// Examples:
//
//	permbench -fig 6                     # TPC-H, default four scales
//	permbench -fig 6 -scales 0.05,0.5 -queries 4,11,15 -timeout 10s
//	permbench -fig 7 -sizes 10,100,1000 -instances 5
//	permbench -fig all -timeout 5s       # everything, quick cutoff
//	permbench -fig modes                 # sequential vs memo
//	permbench -fig stream                # streaming vs materializing executor
//	permbench -fig stream -sizes 100,400 -instances 1
//	permbench -fig 7 -memo               # paper sweep with the sublink memo
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"perm/internal/bench"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 6, 7, 8, 9, modes, stream or all")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-cell timeout (the paper's 6h rule, scaled); slower cells print >timeout")
		instances = flag.Int("instances", 3, "random query instances averaged per cell (the paper used 100)")
		seed      = flag.Int64("seed", 1, "workload seed")
		scales    = flag.String("scales", "", "figure 6 database scales, comma-separated (default 0.05,0.5,5,50)")
		queries   = flag.String("queries", "", "figure 6 TPC-H query numbers, comma-separated (default: all nine)")
		sizes     = flag.String("sizes", "", "sweep sizes for figures 7-9 and the modes/stream tables, comma-separated")
		memo      = flag.Bool("memo", false, "enable per-binding sublink memoization for figures 6-9 (off matches the paper's PostgreSQL executor)")
	)
	flag.Parse()

	r := bench.New(os.Stdout, *timeout, *instances)
	r.SublinkMemo = *memo

	f6 := bench.DefaultFig6()
	f6.Seed = *seed
	if *scales != "" {
		f6.Scales = nil
		for _, s := range strings.Split(*scales, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fatalf("invalid scale %q: %v", s, err)
			}
			f6.Scales = append(f6.Scales, v)
		}
	}
	if *queries != "" {
		for _, s := range strings.Split(*queries, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatalf("invalid query number %q: %v", s, err)
			}
			f6.Queries = append(f6.Queries, v)
		}
	}

	sc := bench.DefaultSynth()
	sc.Seed = *seed
	if *sizes != "" {
		sc.Sizes = nil
		for _, s := range strings.Split(*sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatalf("invalid size %q: %v", s, err)
			}
			sc.Sizes = append(sc.Sizes, v)
		}
	}

	mc := bench.DefaultModes()
	mc.Seed = *seed
	st := bench.DefaultStream()
	st.Seed = *seed
	if *sizes != "" {
		mc.Sizes = append([]int(nil), sc.Sizes...)
		st.Sizes = append([]int(nil), sc.Sizes...)
	}

	// The process entry point owns the root context; an interrupt cancels
	// the in-flight cell and the run exits at the next measurement.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("permbench: timeout=%v instances=%d seed=%d\n", *timeout, *instances, *seed)
	switch *fig {
	case "6":
		r.Figure6(ctx, f6)
	case "7":
		r.Figure7(ctx, sc)
	case "8":
		r.Figure8(ctx, sc)
	case "9":
		r.Figure9(ctx, sc)
	case "modes":
		r.Modes(ctx, mc)
	case "stream":
		r.FigureStream(ctx, st)
	case "all":
		r.Figure6(ctx, f6)
		r.Figure7(ctx, sc)
		r.Figure8(ctx, sc)
		r.Figure9(ctx, sc)
		r.Modes(ctx, mc)
		r.FigureStream(ctx, st)
	default:
		fatalf("unknown figure %q (want 6, 7, 8, 9, modes, stream or all)", *fig)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "permbench: "+format+"\n", args...)
	os.Exit(1)
}
