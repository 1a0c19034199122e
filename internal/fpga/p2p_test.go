package fpga

import (
	"context"
	"sync"
	"testing"

	"trainbox/internal/dataprep"
	"trainbox/internal/faults"
	"trainbox/internal/nvme"
	"trainbox/internal/storage"
)

// TestP2PPathBitEqualWithHostPath is the end-to-end device-centric
// integration: stored JPEGs fetched over the NVMe queue interface and
// prepared by the FPGA engine must be bit-identical to the host path
// (store read + CPU pipeline) for the same seeds.
func TestP2PPathBitEqualWithHostPath(t *testing.T) {
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store, 6, 4, 7); err != nil {
		t.Fatal(err)
	}
	ns, err := nvme.LoadStore(store)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataprep.DefaultImageConfig()
	handler, err := NewP2PHandler(ns, NewImageEmulator(cfg), 8)
	if err != nil {
		t.Fatal(err)
	}

	const datasetSeed, epoch = 7, 2
	device, err := newCluster(t, []*P2PHandler{handler}).PrepareBatch(context.Background(), store.Keys(), datasetSeed, epoch)
	if err != nil {
		t.Fatal(err)
	}
	hostExec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, datasetSeed)
	host, err := hostExec.PrepareBatch(store, store.Keys(), epoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(device) != len(host) {
		t.Fatalf("batch sizes differ: %d vs %d", len(device), len(host))
	}
	for i := range host {
		if device[i].Label != host[i].Label {
			t.Fatalf("sample %d label mismatch", i)
		}
		for j := range host[i].Image.Data {
			if device[i].Image.Data[j] != host[i].Image.Data[j] {
				t.Fatalf("sample %d diverges at element %d — P2P path not transparent", i, j)
			}
		}
	}
}

func TestP2PHandlerErrors(t *testing.T) {
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store, 2, 2, 1); err != nil {
		t.Fatal(err)
	}
	ns, err := nvme.LoadStore(store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewP2PHandler(nil, NewImageEmulator(dataprep.DefaultImageConfig()), 8); err == nil {
		t.Error("nil namespace accepted")
	}
	if _, err := NewP2PHandler(ns, nil, 8); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewP2PHandler(ns, NewImageEmulator(dataprep.DefaultImageConfig()), 1); err == nil {
		t.Error("sub-minimum queue depth accepted")
	}
	h, err := NewP2PHandler(ns, NewImageEmulator(dataprep.DefaultImageConfig()), 8)
	if err != nil {
		t.Fatal(err)
	}
	if out := h.prepareSample(context.Background(), "missing", 1, 0); out.Err == nil {
		t.Error("missing key prepared")
	}
	if _, err := newCluster(t, []*P2PHandler{h}).PrepareBatch(context.Background(), []string{"missing"}, 1, 0); err == nil {
		t.Error("batch with missing key accepted")
	}
}

func TestP2PAudioPath(t *testing.T) {
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildAudioDataset(store, 2, 2, 5); err != nil {
		t.Fatal(err)
	}
	ns, err := nvme.LoadStore(store)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataprep.DefaultAudioConfig()
	h, err := NewP2PHandler(ns, &Emulator{Audio: &cfg}, 4)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := newCluster(t, []*P2PHandler{h}).PrepareBatch(context.Background(), store.Keys(), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	hostOut := dataprep.AudioPreparer{Config: cfg}
	for i, key := range store.Keys() {
		obj, _ := store.Get(key)
		want := hostOut.Prepare(obj, dataprep.SampleSeed(5, key, 0), nil)
		for j := range want.Audio.Data {
			if batch[i].Audio.Data[j] != want.Audio.Data[j] {
				t.Fatalf("audio sample %d diverges at %d", i, j)
			}
		}
	}
}

// cancelAt cancels the batch when the device reads key, then stalls
// that read until the cancellation lands.
type cancelAt struct {
	key    string
	cancel context.CancelFunc
}

func (c cancelAt) Inject(op faults.Op) faults.Fault {
	if op.Key != c.key {
		return faults.Fault{}
	}
	c.cancel()
	return faults.Fault{Stall: true}
}

// TestP2POutputFramesRecycle: device outputs land in the handler's own
// output frames and come back through dataprep.Recycle — from another
// goroutine while the next batch prepares, as train's extract stage
// does, and through the dispatch pipeline when a batch is cancelled
// mid-flight — so every frame handed out returns, later batches reuse
// them, and reused frames stay bit-identical to the host path.
func TestP2POutputFramesRecycle(t *testing.T) {
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store, 8, 4, 3); err != nil {
		t.Fatal(err)
	}
	ns, err := nvme.LoadStore(store)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataprep.DefaultImageConfig()
	cfg.CropW, cfg.CropH = 32, 32
	keys := store.Keys()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := cancelAt{key: keys[5], cancel: cancel}
	hs := make([]*P2PHandler, 2)
	for i := range hs {
		if hs[i], err = NewP2PHandler(ns, NewImageEmulator(cfg), 8, WithFaults(inj)); err != nil {
			t.Fatal(err)
		}
	}
	c := newCluster(t, hs)
	host := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, 3)

	const epochs = 4
	var wg sync.WaitGroup
	for epoch := 0; epoch < epochs; epoch++ {
		got, err := c.PrepareBatch(context.Background(), keys[:5], 3, epoch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := host.PrepareBatch(store, keys[:5], epoch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j, v := range want[i].Image.Data {
				if got[i].Image.Data[j] != v {
					t.Fatalf("epoch %d sample %d diverges at element %d", epoch, i, j)
				}
			}
		}
		host.Recycle(want...)
		wg.Wait()
		wg.Add(1)
		go func() {
			defer wg.Done()
			dataprep.Recycle(got...)
		}()
	}
	wg.Wait()
	if _, err := c.PrepareBatch(ctx, keys, 3, epochs); err == nil {
		t.Fatal("cancelled batch succeeded")
	}

	var gets, news int64
	for i, h := range hs {
		st := h.OutputStats()
		if st.Gets != st.Puts {
			t.Errorf("device %d handed out %d frames and got %d back", i, st.Gets, st.Puts)
		}
		gets, news = gets+st.Gets, news+st.News
	}
	if gets < epochs*5 || news*2 > gets {
		t.Errorf("%d frames handed out, %d allocated: want at least %d, mostly reused", gets, news, epochs*5)
	}
}
