// Command datasetgen inspects the synthetic dataset analogs: it prints
// the Table 5 statistics at any scale and can render frames as ASCII art
// to eyeball what each condition looks like.
//
// Usage:
//
//	datasetgen [-scale 0.01] [-show bdd:0] [-frames 3]
//
// The -show argument names a dataset and sequence index ("bdd:1" renders
// the BDD night sequence).
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"videodrift/internal/dataset"
	"videodrift/internal/stats"
	"videodrift/internal/vidsim"
)

func main() {
	scale := flag.Float64("scale", 0.01, "dataset scale for statistics")
	show := flag.String("show", "", "render frames from dataset:sequence (e.g. bdd:1)")
	frames := flag.Int("frames", 2, "frames to render with -show")
	flag.Parse()

	fmt.Printf("%-8s %6s %12s %12s %10s %6s\n", "dataset", "#seq", "stream@1.0", "stream@now", "obj/frame", "std")
	for _, ds := range dataset.All(*scale) {
		st := ds.Stats(500)
		full := fullSize(ds.Name)
		fmt.Printf("%-8s %6d %12d %12d %10.1f %6.1f\n",
			st.Name, st.Sequences, full, st.StreamSize, st.ObjPerFrame, st.Std)
	}

	if *show == "" {
		return
	}
	parts := strings.SplitN(*show, ":", 2)
	ds, err := dataset.ByName(parts[0], *scale)
	if err != nil {
		log.Fatal(err)
	}
	seq := 0
	if len(parts) == 2 {
		if seq, err = strconv.Atoi(parts[1]); err != nil || seq < 0 || seq >= len(ds.Sequences) {
			log.Fatalf("bad sequence index %q", parts[1])
		}
	}
	cond := ds.Sequences[seq]
	fmt.Printf("\ncondition %q: background %.2f, car %.2f, bus %.2f, scale %.2f, weather %s\n",
		cond.Name, cond.Background, cond.CarIntensity, cond.BusIntensity, cond.ObjScale, cond.Weather)
	g := vidsim.NewSceneGenerator(cond, ds.W, ds.H, stats.NewRNG(1))
	for i := 0; i < *frames; i++ {
		f := g.Next()
		fmt.Printf("\nframe %d (%d objects):\n%s", i, len(f.Truth), ascii(f))
	}
}

func fullSize(name string) int {
	for _, ds := range dataset.All(1.0) {
		if ds.Name == name {
			return ds.StreamSize()
		}
	}
	return 0
}

// ascii renders a frame with a 10-step brightness ramp.
func ascii(f vidsim.Frame) string {
	const ramp = " .:-=+*#%@"
	var b strings.Builder
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			v := int(f.At(x, y) * 10)
			if v > 9 {
				v = 9
			}
			b.WriteByte(ramp[v])
			b.WriteByte(ramp[v]) // double width for aspect ratio
		}
		b.WriteByte('\n')
	}
	return b.String()
}
