// Command rmatgen generates R-MAT edge lists with the Graph500
// parameters, either as text ("u v" per line) or as little-endian binary
// int64 pairs, to stdout or a file.
//
// Usage:
//
//	rmatgen -scale 16 > edges.txt
//	rmatgen -scale 20 -format bin -o edges.bin
//	rmatgen -scale 16 -from 0 -to 1000    # a slice of the edge list
package main

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"

	"numabfs"
)

func main() {
	scale := flag.Int("scale", 14, "graph scale (log2 of vertex count)")
	ef := flag.Int64("edgefactor", 16, "edges per vertex")
	seed := flag.Uint64("seed", 0, "generator seed (0 = default)")
	format := flag.String("format", "text", "output format: text | bin")
	out := flag.String("o", "", "output file (default stdout)")
	from := flag.Int64("from", 0, "first edge index")
	to := flag.Int64("to", -1, "one past the last edge index (-1 = all)")
	noScramble := flag.Bool("noscramble", false, "disable vertex scrambling")
	flag.Parse()

	params := numabfs.Graph500Params(*scale)
	params.EdgeFactor = *ef
	if *seed != 0 {
		params = params.WithSeed(*seed)
	}
	if *noScramble {
		params = params.WithScramble(false)
	}
	if err := params.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "rmatgen: %v\n", err)
		os.Exit(2)
	}
	lo, hi := *from, *to
	if hi < 0 || hi > params.NumEdges() {
		hi = params.NumEdges()
	}
	if lo < 0 || lo > hi {
		fmt.Fprintf(os.Stderr, "rmatgen: bad edge range [%d, %d)\n", lo, hi)
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmatgen: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "rmatgen: close: %v\n", err)
				os.Exit(1)
			}
		}()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	defer bw.Flush()

	var write func(u, v int64) error
	switch *format {
	case "text":
		write = func(u, v int64) error {
			_, err := fmt.Fprintf(bw, "%d %d\n", u, v)
			return err
		}
	case "bin":
		var buf [16]byte
		write = func(u, v int64) error {
			binary.LittleEndian.PutUint64(buf[0:], uint64(u))
			binary.LittleEndian.PutUint64(buf[8:], uint64(v))
			_, err := bw.Write(buf[:])
			return err
		}
	default:
		fmt.Fprintf(os.Stderr, "rmatgen: unknown format %q\n", *format)
		os.Exit(2)
	}
	// Generate in batches through Edges, which derives the generator's
	// constants once per batch rather than once per edge.
	const batch = 1 << 16
	edges := make([]int64, 0, 2*batch)
	for i := lo; i < hi; i += batch {
		edges = params.Edges(edges[:0], i, min(i+batch, hi))
		for k := 0; k < len(edges); k += 2 {
			if err := write(edges[k], edges[k+1]); err != nil {
				fmt.Fprintf(os.Stderr, "rmatgen: write: %v\n", err)
				os.Exit(1)
			}
		}
	}
}
