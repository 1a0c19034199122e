package dataprep

import (
	"context"
	"testing"

	"trainbox/internal/storage"
)

// TestPrepareBatchCancelRecyclesOutputs: a batch cancelled mid-flight
// must return every pooled output buffer it produced — the executor's
// discard hook closes the loop the consumer never got to.
func TestPrepareBatchCancelRecyclesOutputs(t *testing.T) {
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := BuildImageDataset(store, 24, 4, 1); err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(ImagePreparer{Config: DefaultImageConfig()}, 4, 1)
	keys := store.Keys()
	for trial := 0; trial < 6; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			out, err := exec.PrepareBatchContext(ctx, store, keys, trial)
			if err == nil {
				// The batch won the race against cancel — recycle like a
				// well-behaved consumer and move on.
				exec.Recycle(out...)
			}
		}()
		cancel()
		<-done
		st := exec.OutputStats()
		if st.Gets != st.Puts {
			t.Fatalf("trial %d: output buffers leaked on cancel: Gets=%d Puts=%d News=%d",
				trial, st.Gets, st.Puts, st.News)
		}
	}
}
