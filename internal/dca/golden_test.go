package dca

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"testing"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/ptx"
	"cnnperf/internal/zoo"
)

// TestLaunchKeyGolden pins the full dca key launchKey derives from a real
// launch: the first alexnet launch (an overcovering grid), with and
// without the block-visit profile. Persisted stores and snapshots are
// addressed by these bytes, so a change here orphans every dca record
// already written.
func TestLaunchKeyGolden(t *testing.T) {
	prog := compileZoo(t, "alexnet")
	l := prog.Launches[0]
	k := prog.Module.Kernel(l.Kernel)
	f := &kernelFacts{k: k, d: analysiscache.NewDigest(k)}
	for _, c := range []struct {
		opts Options
		want string
	}{
		{Options{}, "dca:850a8b1ddb769d048c599f7678d6db4b80c96dc1a01eb58fd98b0620096aa5bf"},
		{Options{BlockCounts: true}, "dca:9063d64cb206ab684c937b64ed72e7bf90826735d6abba03616c991a7696a878"},
	} {
		if got := launchKey(f, l, c.opts); got != c.want {
			t.Errorf("launchKey(%s, %+v) = %s, want %s", k.Name, c.opts, got, c.want)
		}
	}
}

// traceGolden is the SHA-256 of every zoo model's launch traces, as
// traceDigest frames them. The traces are the detailed simulator's
// input (gpusim.SimulateDetailed), so they pin its output too.
var traceGolden = map[string]string{
	"alexnet":           "12d71b98dd97f1d735fee280b960cd2a204293ce38c52f64b25d9361da4579f1",
	"densenet121":       "c3bae1e106095559f22ed60da509648c28c9ac1678a2fca0e70fd4b51fba567c",
	"densenet169":       "093219d20ac0448ac736a5031194817b4e433ac23bb6e0b674f025f340d25353",
	"densenet201":       "9cfd3f9bf3e77a0941c4b5418c9abe0ee1280c57508e83ee175ba92c953b22a7",
	"efficientnetb0":    "ee89892d1a6971421eab8af0a2c504df4d9d88bc615c49ffcbfc4d64aa514a4c",
	"efficientnetb1":    "903fbc3b82741db06d4eee3ba86e8b0c2bc3e6eb98d6d6c2b40e7c44b13cb7fb",
	"efficientnetb2":    "a552c3dbfe255a7b177320859cf4f6b3ae0aa147d340b5b2663b358eaf79ea75",
	"efficientnetb3":    "3f17a549648612a3cf6fba5e8cc943f5e5f70f9a9771bd880edbfa4bda8e13f7",
	"efficientnetb4":    "0c7ea39b30a9f22db0f4a155292966b82316121de4e1af982c52f191849c47b9",
	"efficientnetb5":    "eb2d5421380f476161680451f49ba4c0c03abda690c4da862bf07469eb7844dd",
	"efficientnetb6":    "9cc926ef7fd491f3ea5e1de3a49a6eb743782c26a1d52f2566c20b72c2a89aa9",
	"efficientnetb7":    "59b5bebdf6d847eb07eede5319a9cbf157f46a2e6ae788ebf69911e5eeb2088a",
	"inceptionresnetv2": "a8e2dcd8a27f5d5dec54526f74c887b6692e66049130b5767fdbb21ff0f0547d",
	"inceptionv3":       "185e118a316544a8674b45deb9ed7ce0813888c5579d7c3933c6527de8b8caf1",
	"m-r101x1":          "fb39c1d95a9dddad978b406258a278d196c1952374583e6d8fb5dd4a09e48254",
	"m-r101x3":          "9d5dd1af9c66994716d732fe0b489914b7f59818893bcbe9092314ad1e69f365",
	"m-r152x4":          "e9700c629ff2b3f6e8e7e55119453f1ead3840ccc0c7ae4d3d5d6c481a786019",
	"m-r50x1":           "5f90dcde22288913c12d72258b1a9a0ce5e3b40c132ce5e1f374f476c53ff2e4",
	"m-r50x3":           "1ebc10e81f07a0df950637a2e49353375a824b7007f245cceb7f65a16e290f87",
	"mobilenet":         "c10ed66d49922165858433bb13616f1096c0ce0691352406b7aa83d1836e9076",
	"mobilenetv2":       "fc5bcaa7cbcebb694738faea80a195c8eb1455c2b882037adf775c4b63e3bf17",
	"nasnetlarge":       "38fca782582b115061c1695b8fb4959d52ef80ec3dd5cb69c6978ce8a0a47a94",
	"nasnetmobile":      "3385d178b1edcd8b484ce613d1c1cf5796f60e35c55131c9a06543dfb7dcb7a0",
	"resnet101":         "171d3da0ff22164d88f1a43057c26cb163163e1f1092848501d56167d8140a8a",
	"resnet101v2":       "53c4e43504d1d9314c280bb24f4aa3bd6236ba416ad7e2069ee5609f2d09ed1f",
	"resnet152":         "2b7c9c13a44431ad4963137bfd34b779ef07d84325aec8e7a696b70f8fa9244f",
	"resnet152v2":       "5eb93005f16d002ace0ad7a3ab2a771072c92625e4c5556dfd535b12b414cd04",
	"resnet18":          "453fabe739992334115b71202855e70ced4684a514c7fd1f84d5b7c52b48e4ff",
	"resnet34":          "ab43357de0ddd98b56df1ee8fdcb2ef31edb7693d1a281aa524a1406ed57ff72",
	"resnet50":          "7fad09cb1aa9ecc5ffabdd5abbc3a16bc3bf23013d2cb40ca85a67c6a1323695",
	"resnet50v2":        "8e32ba04a39dbb386e11258cf0261caac7c67bff66d4a5c1834e33cce3fe985f",
	"squeezenet":        "b7ed00d31937277020ddec6a79ddd89f3ea990a1afb2b0f6de97de3f5fbe1399",
	"vgg16":             "083662339dc4b76f71196fa61fe16a2abe86e10d10f1941c1bdda218a6675f72",
	"vgg19":             "4e3b7ba6346f094c49fd19b6b25e7bc1bcd51b395d95053f9575925d03cf0598",
	"xception":          "32cf8e11fd7cbcb5f43433c80453302b9d854e2128e82e8fda955d2cfb10ddef",
}

// TestTraceGolden pins TraceThread's class sequences over the whole zoo
// and checks each trace against the reference interpreter: its length
// is the in-bounds thread's Steps and its class histogram that thread's
// PerClass. -short runs the four models experiments -simcomp simulates.
func TestTraceGolden(t *testing.T) {
	models := zoo.Names()
	if testing.Short() {
		models = []string{"alexnet", "mobilenetv2", "squeezenet", "resnet18"}
	}
	for _, name := range models {
		want, ok := traceGolden[name]
		if !ok {
			t.Errorf("%s: no golden trace digest", name)
			continue
		}
		prog := compileZoo(t, name)
		h := sha256.New()
		for i, l := range prog.Launches {
			k := prog.Module.Kernel(l.Kernel)
			trace, err := TraceThread(k, l, 0)
			if err != nil {
				t.Fatalf("%s launch %d: %v", name, i, err)
			}
			ref, err := ExecuteThread(k, BuildControlSlice(k, BuildDepGraph(k)), l.Params,
				ThreadCtx{NTid: int64(l.BlockX), NCtaID: int64(l.GridX)}, ExecOptions{})
			if err != nil {
				t.Fatalf("%s launch %d reference: %v", name, i, err)
			}
			var hist ClassHist
			for _, c := range trace {
				hist[c]++
			}
			if int64(len(trace)) != ref.Steps || hist != ref.PerClass {
				t.Fatalf("%s launch %d (%s): trace of %d instructions, classes %v; reference %d steps, classes %v",
					name, i, k.Name, len(trace), hist, ref.Steps, ref.PerClass)
			}
			traceDigest(h, trace)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: trace digest %s, want %s", name, got, want)
		}
	}
}

// traceDigest frames one launch's trace into h: the trace length as 8
// little-endian bytes, then one byte per class.
func traceDigest(h io.Writer, trace []ptx.Class) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(trace)))
	h.Write(n[:])
	b := make([]byte, len(trace))
	for i, c := range trace {
		b[i] = byte(c)
	}
	h.Write(b)
}
