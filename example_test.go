package pac_test

import (
	"fmt"
	"log"
	"os"

	"pac"
	"pac/internal/data"
	"pac/internal/generate"
	"pac/internal/train"
)

// Fine-tune a personal LLM with PAC. A tiny trainable transformer gets
// Parallel Adapters and runs the full PAC workflow on four in-process
// edge devices (2 pipeline stages × 2 data-parallel lanes): epoch 1
// trains through the frozen backbone and fills the activation cache;
// later epochs train the adapters alone straight from the cache.
func ExampleNew() {
	// A synthetic sentiment task standing in for user-generated data.
	dataset := pac.GenerateDataset(pac.DataGenConfig{
		Task: pac.SST2, Size: 48, SeqLen: 12, Vocab: 64, Seed: 1,
	})
	trainSet, evalSet := dataset.Split(0.25)

	// The personal LLM being adapted: a backbone pretrained on a generic
	// corpus (in real deployments this is the downloaded foundation
	// model).
	pretrainCorpus := pac.GenerateDataset(pac.DataGenConfig{
		Task: pac.SST2, Size: 128, SeqLen: 12, Vocab: 64, Seed: 9,
	})
	backbone := pac.PretrainBackbone(pac.TinyModel(), pretrainCorpus, 3, 3e-3, 1)

	framework := pac.New(pac.Config{
		Model:    pac.TinyModel(),
		Opts:     pac.TechniqueOptions{Reduction: 2},
		Stages:   2, // pipeline depth
		Lanes:    2, // replicas per stage
		LR:       0.005,
		Adam:     true,
		Backbone: backbone,
	})

	before := framework.Evaluate(evalSet, 12)
	fmt.Printf("before fine-tuning: accuracy %.1f%%, loss %.2f\n", before.Accuracy*100, before.Loss)

	// One PAC run: epoch 1 fills the cache, epochs 2–8 train the
	// adapters from it.
	if _, err := framework.FineTune(trainSet, 12, 8, 1); err != nil {
		log.Fatal(err)
	}

	after := framework.Evaluate(evalSet, 12)
	fmt.Printf("after fine-tuning:  accuracy %.1f%%, loss %.2f\n", after.Accuracy*100, after.Loss)
	fmt.Printf("activation cache:   %d of %d training samples, %d hits\n",
		framework.Cache().Len(), trainSet.Len(), framework.Cache().Stats().Hits)
	// Output:
	// before fine-tuning: accuracy 66.7%, loss 0.65
	// after fine-tuning:  accuracy 91.7%, loss 0.42
	// activation cache:   36 of 36 training samples, 252 hits
}

// Fine-tune a personal LLM generator with Parallel Adapters. The frozen
// pretrained backbone already knows how to copy sequences; the side
// network adapts it to a user-specific transformation (answer with the
// first input token plus one): the paper's personalization story applied
// to sequence generation instead of classification.
func ExampleDecode() {
	const vocab, seqLen, targetLen = 12, 4, 1

	cfg := pac.TinyModel()
	cfg.Vocab, cfg.NumClasses, cfg.LM = vocab, vocab, true

	// Pretraining: the backbone learns the generic copy task end to end.
	backbone := pac.NewModel(cfg)
	full := pac.Attach(pac.Full, backbone, pac.TechniqueOptions{})
	copyTask := pac.GenerateSeq2Seq(pac.CopyTask, 128, seqLen, targetLen, vocab, 1)
	pre := &generate.Trainer{Tech: full, Opt: train.NewAdam(full.Trainable(), 4e-3), Clip: 1}
	loader := generate.NewLoader(copyTask, 16, 1)
	for ep := 0; ep < 8; ep++ {
		pre.TrainEpoch(loader, ep)
	}

	// Personalization: the user's task is increment-by-one. Parallel
	// Adapters on a frozen backbone train only the side network.
	personal := pac.GenerateSeq2Seq(pac.IncrementTask, 96, seqLen, targetLen, vocab, 2)
	trainSet, evalSet := personal.Split(0.25)
	pa := pac.Attach(pac.ParallelAdapters, backbone, pac.TechniqueOptions{Reduction: 2})

	exact, token := generate.Eval(pa, evalSet, 16)
	fmt.Printf("before: exact %.0f%%, token %.0f%%\n", exact*100, token*100)
	ft := &generate.Trainer{Tech: pa, Opt: train.NewAdam(pa.Trainable(), 1e-2), Clip: 1}
	loader = generate.NewLoader(trainSet, 16, 2)
	for ep := 0; ep < 12; ep++ {
		ft.TrainEpoch(loader, ep)
	}
	exact, token = generate.Eval(pa, evalSet, 16)
	fmt.Printf("after:  exact %.0f%%, token %.0f%%\n", exact*100, token*100)

	ex := evalSet.Examples[0]
	out := pac.Decode(pa, [][]int{ex.Enc}, []int{ex.Len}, pac.GenOptions{MaxLen: targetLen + 1})
	fmt.Printf("input %v → generated %v (target %v)\n", ex.Enc[:targetLen], out[0], ex.Target)
	// Output:
	// before: exact 0%, token 25%
	// after:  exact 100%, token 100%
	// input [8] → generated [9] (target [9])
}

// Smart-home assistant personalization, the paper's motivating scenario
// (Figure 1): a personal LLM agent hosted across the trusted idle devices
// of one home learns a user's phrasing for device commands without any
// data leaving the LAN. Real command texts are tokenized with the
// library's hash tokenizer, labeled by intent (lights vs climate), and
// fine-tuned with the full PAC workflow over a disk-backed activation
// cache, as on real flash-storage devices.
func Example_smartHome() {
	const seqLen, vocab = 16, 256
	dataset := pac.Shuffle(intents(seqLen, vocab, []string{"", "hey assistant ", "please ", "could you "},
		lightCommands, climateCommands), 3)
	trainSet, evalSet := dataset.Split(0.25)
	fmt.Printf("smart home corpus: %d utterances (%d train / %d eval)\n",
		dataset.Len(), trainSet.Len(), evalSet.Len())

	cacheDir, err := os.MkdirTemp("", "pac-smarthome-cache")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(cacheDir)
	cache, err := pac.NewDiskCache(cacheDir)
	if err != nil {
		log.Fatal(err)
	}

	cfg := pac.TinyModel()
	cfg.Vocab = vocab

	// The backbone arrives pretrained (here on an auxiliary command
	// corpus: media vs security intents) before PAC personalizes it.
	corpus := intents(seqLen, vocab, []string{"", "hey assistant ", "please ", "could you ", "would you kindly "},
		mediaCommands, securityCommands)
	backbone := pac.PretrainBackbone(cfg, pac.Shuffle(corpus, 5), 3, 3e-3, 2)

	// The home's device pool: 2 pipeline stages, each replicated on 2
	// devices (say, a TV box, two smart displays, and a router).
	framework := pac.New(pac.Config{
		Model: cfg, Opts: pac.TechniqueOptions{Reduction: 2},
		Stages: 2, Lanes: 2, LR: 0.012, Adam: true, Cache: cache,
		Backbone: backbone,
	})

	before := framework.Evaluate(evalSet, 8)
	fmt.Printf("intent accuracy before personalization: %.1f%%\n", before.Accuracy*100)

	// Many epochs are affordable because all but the first run from the
	// activation cache, never touching the backbone.
	if _, err := framework.FineTune(trainSet, 12, 30, 1); err != nil {
		log.Fatal(err)
	}

	after := framework.Evaluate(evalSet, 8)
	fmt.Printf("intent accuracy after personalization:  %.1f%%\n", after.Accuracy*100)
	fmt.Printf("disk cache: %d entries, %.2f MB, %d hits\n",
		framework.Cache().Len(), float64(framework.Cache().Bytes())/1e6, framework.Cache().Stats().Hits)
	fmt.Printf("redistributed %.2f MB of adapters+cache between devices\n",
		float64(framework.RedistributedBytes)/1e6)
	// Output:
	// smart home corpus: 64 utterances (48 train / 16 eval)
	// intent accuracy before personalization: 56.2%
	// intent accuracy after personalization:  87.5%
	// disk cache: 48 entries, 0.11 MB, 1392 hits
	// redistributed 0.11 MB of adapters+cache between devices
}

// Utterances a household might produce, by intent: the personal task
// (lights vs climate) and the pretraining corpus (media vs security).
var (
	lightCommands = []string{
		"turn on the living room lights",
		"dim the bedroom lamp to half",
		"switch off every light downstairs",
		"make the kitchen brighter please",
		"lights out in the hallway",
		"set the porch light to warm white",
		"turn the desk lamp on",
		"kill the lights in the garage",
	}
	climateCommands = []string{
		"set the thermostat to twenty degrees",
		"make it warmer in here",
		"turn on the air conditioning",
		"the bedroom is too cold tonight",
		"raise the temperature two degrees",
		"switch the heater off please",
		"cool down the living room",
		"what a heatwave crank up the fan",
	}
	mediaCommands = []string{
		"play some jazz in the kitchen",
		"pause the movie in the living room",
		"turn the volume down a bit",
		"skip to the next song",
		"resume my podcast on the speaker",
		"stop the music everywhere",
	}
	securityCommands = []string{
		"lock the front door",
		"arm the alarm for the night",
		"show me the doorbell camera",
		"unlock the back gate",
		"is the garage door closed",
		"disable the motion sensor in the hall",
	}
)

// intents tokenizes each utterance under every paraphrase prefix (so the
// dataset is big enough to split), labeling class0's texts 0 and
// class1's texts 1.
func intents(seqLen, vocab int, prefixes, class0, class1 []string) *pac.Dataset {
	ds := &pac.Dataset{Task: pac.SST2, Name: "smart-home-intents",
		NumClasses: 2, SeqLen: seqLen, Vocab: vocab}
	for label, texts := range [][]string{class0, class1} {
		for _, text := range texts {
			for _, prefix := range prefixes {
				ids, n := data.Tokenize(prefix+text, vocab, seqLen)
				ds.Examples = append(ds.Examples, data.Example{ID: len(ds.Examples), Enc: ids, Len: n, Label: label})
			}
		}
	}
	return ds
}
