package main

// surface.go is the benchmark's whole grip on seagull/internal/...: every
// internal symbol the set-up and the probes name is aliased here and nowhere
// else, so a later change that moves or renames one breaks exactly this file.
// Everything else goes through the root seagull facade or through methods on
// values the facade hands out (System.DB, System.Lake, Router.Map(), ...).
// The README lists the same symbols.

import (
	"seagull/internal/admission"
	"seagull/internal/extract"
	"seagull/internal/metrics"
	"seagull/internal/parallel"
	"seagull/internal/registry"
	"seagull/internal/router"
	"seagull/internal/serving"
	"seagull/internal/validate"
)

// Deployment slots and the sharded front.
type (
	deployTarget  = registry.Target
	routerConfig  = router.Config
	routerReplica = router.Replica
	routerT       = router.Router
)

var newRouter = router.New

// scenario is the deployment scenario every workload predicts under (the
// pipeline deploys its models to it).
const scenario = "backup"

// The serving wire types, used only by the JSON probes: the load generator
// speaks its own structs (wire.go).
type (
	svcPredictRequest  = serving.PredictRequestV2
	svcPredictResponse = serving.PredictResponseV2
	svcBatchRequest    = serving.BatchRequest
	svcBatchResponse   = serving.BatchResponse
	svcIngestRequest   = serving.IngestRequest
	svcIngestResponse  = serving.IngestResponse
)

// Module entry points the probes time directly.
var (
	newLimiter       = admission.NewLimiter
	lowestLoadWindow = metrics.LowestLoadWindow
	newWorkerPool    = parallel.NewPool
	extractIngest    = extract.Ingest
	validateRows     = validate.ValidateRows
	defaultSchema    = validate.DefaultSchema
)

type limiterConfig = admission.Config

const (
	admissionPredict = admission.Predict
	extractDataset   = extract.Dataset
)
