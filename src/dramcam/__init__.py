"""Command-level simulator of a commodity DRAM subarray acting as a CAM."""

from .config import (DeviceConfig, EnergyModel, SystemConfig, TimingModel,
                     GEOMETRY_NARROW, dump_config, load_config,
                     parse_config_text)
from .core import (BitlineLevel, BitlinePhase, BitlineState, CoverageReport,
                   MicroOp, MicroOpDecision, RefreshTracker, Subarray,
                   detect_micro_op, refresh_coverage)
from .cam import (CompiledCompare, LayoutMap, MatchVector, Mode, Polarity,
                  WordDb, compile_hd1_compare, compile_nand_compare,
                  compile_nor_compare, decode_column, encode_word,
                  load_word_db, run_compare, save_word_db, store)
from .errors import (AccountingFault, AddressFault, ConfigError, DramCamError,
                     EmptyDbFault, EncodingFault, IOFault, LayoutFault,
                     NoOpFault, ProtocolFault, StalePresetWarning, TimingFault,
                     TraceFormatError)
from .genomics import (BatchSummary, ClassificationResult, GenomeLayout,
                       KmerDatabase, TaxonGroup, classify, classify_batch,
                       decode_kmer_onehot, encode_kmer_onehot, extract_kmers,
                       ingest, ingest_text, load_kmer_db,
                       parse_reference_text, save_kmer_db)
from .metrics import (Report, ThroughputEstimate, account,
                      add_host_assignment, format_report, throughput_estimate)
from .microops import (ComputeRows, TempRows, allocate_reserved_rows, and3,
                       check_row_constraints, cpy, majority_row_set, or3)
from .trace import (Command, CommandKind, act, activated_rows, format_trace,
                    parse_trace, pre, trace_cycles)

__version__ = "0.1.0"
