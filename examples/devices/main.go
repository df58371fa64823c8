// Devices: what HyRec costs the client — the same personalization job
// executed on the reference laptop, on a loaded laptop, and on a
// smartphone-class device, echoing the paper's Figures 12 and 13 ("HyRec
// can exploit clients with small mobile devices without impacting user
// activities").
//
//	go run ./examples/devices
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"hyrec"
)

func main() {
	ctx := context.Background()
	// Build a worst-case personalization job: full candidate set for
	// k=10 (120 profiles), 100 items per profile.
	engine := hyrec.NewEngine(hyrec.DefaultConfig())
	for u := hyrec.UserID(0); u < 121; u++ {
		for j := 0; j < 100; j++ {
			engine.Rate(ctx, u, hyrec.ItemID((int(u)*37+j*11)%1000), true)
		}
	}
	// Pre-fill the KNN table so the sampler produces a dense set.
	for u := hyrec.UserID(0); u < 121; u++ {
		hood := make([]hyrec.UserID, 0, 10)
		for d := hyrec.UserID(1); d <= 10; d++ {
			hood = append(hood, (u+d)%121)
		}
		engine.KNN().Put(u, hood)
	}
	_, gz, err := engine.AppendJobPayload(ctx, 0, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("personalization job: %.1f kB on the wire (gzip, as /online serves it)\n\n", float64(len(gz))/1024)

	devices := []struct {
		label  string
		device hyrec.Device
	}{
		{"laptop (idle)", hyrec.Laptop()},
		{"laptop (50% CPU busy)", hyrec.Laptop().WithLoad(0.5)},
		{"smartphone (idle)", hyrec.Smartphone()},
		{"smartphone (50% CPU busy)", hyrec.Smartphone().WithLoad(0.5)},
	}
	fmt.Printf("%-28s %12s %12s %12s\n", "device", "inflate", "knn+rec", "total")
	for _, d := range devices {
		w := hyrec.NewWidget(hyrec.WithDevice(d.device))
		// Average a few runs for stable numbers.
		var inflate, compute, total time.Duration
		const reps = 20
		for i := 0; i < reps; i++ {
			_, timing, err := w.ExecutePayload(gz)
			if err != nil {
				log.Fatal(err)
			}
			inflate += timing.Decompress + timing.Decode
			compute += timing.KNN + timing.Recommend
			total += timing.Total
		}
		fmt.Printf("%-28s %12s %12s %12s\n", d.label,
			(inflate / reps).Round(10*time.Microsecond),
			(compute / reps).Round(10*time.Microsecond),
			(total / reps).Round(10*time.Microsecond))
	}

	fmt.Println("\nwidget keeps no state: the same user can roam devices freely.")
}
