// Quickstart: provision two models (day and night), monitor a stream that
// drifts from day into night, and watch the monitor detect the drift and
// deploy the matching model.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"videodrift"
	"videodrift/internal/vidsim"
)

const w, h = 32, 32

// annotator is the annotation oracle: the built-in detector (the Mask
// R-CNN stand-in) counting cars on the frame's pixels, the only thing a
// frame the monitor keeps for selection carries.
var annotator = videodrift.NewAnnotator(30)

func main() {
	labeler := annotator.Labeler(videodrift.CountQuery)
	opts := videodrift.Defaults(w*h, annotator.NumClasses(videodrift.CountQuery))

	// 1. Provision models from per-condition training footage.
	fmt.Println("training day and night models...")
	day := videodrift.BuildModel("day",
		vidsim.GenerateTraining(vidsim.Day(), w, h, 300, 1), labeler, opts)
	night := videodrift.BuildModel("night",
		vidsim.GenerateTraining(vidsim.Night(), w, h, 300, 2), labeler, opts)

	// 2. Start the monitor (deploys the first model).
	mon := videodrift.NewMonitor([]*videodrift.Model{day, night}, labeler, opts)
	fmt.Printf("monitoring with model %q\n", mon.Current())

	// 3. Stream: 600 day frames, then an abrupt switch to night.
	stream := vidsim.NewStream(w, h, 7,
		vidsim.Segment{Cond: vidsim.Day(), Length: 600},
		vidsim.Segment{Cond: vidsim.Night(), Length: 400},
	)
	driftAt := stream.DriftPoints()[0]
	fmt.Printf("streaming %d frames (ground-truth drift at frame %d)\n\n", stream.TotalLength(), driftAt)

	i := 0
	for {
		f, ok := stream.Next()
		if !ok {
			break
		}
		ev := mon.Process(f)
		if ev.Drift {
			fmt.Printf("frame %4d: drift detected (%d frames after the switch)\n", i, i-driftAt+1)
		}
		if ev.SwitchedTo != "" {
			fmt.Printf("frame %4d: deployed model %q\n", i, ev.SwitchedTo)
		}
		i++
	}

	st := mon.Stats()
	fmt.Printf("\ndone: %d frames, %d drifts detected, %d model selections, %d models trained\n",
		st.Frames, st.DriftsDetected, st.ModelsSelected, st.ModelsTrained)
	fmt.Printf("deployed model at end of stream: %q\n", mon.Current())
}
