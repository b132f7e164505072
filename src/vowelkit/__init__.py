"""Kernel-SVM vowel recognition toolkit.

MFCC/PLP front end, middle-frame or fuzzy c-means frame selection, min-max
scaling, SMO-trained soft-margin SVMs with polynomial/RBF/sigmoid kernels,
one-against-one voting and a grid-search harness for TIMIT-style corpora.
"""

from .errors import (
    DegenerateSpectrum,
    FormatError,
    InvalidInput,
    TooShort,
    VowelkitError,
)
from .frontend import FrontendConfig, RawSignal, extract_features
from .frame_select import Fcm, MiddleFrames, fcm_cluster, select_middle
from .kernels import Linear, Polynomial, Rbf, Sigmoid, gram_matrix, kernel_eval, psd_check
from .preprocessing import ScalerParams, apply_scaler, fit_scaler
from .svm import (
    BinaryModel,
    BinaryProblem,
    SvmParams,
    dual_objective,
    smo_train,
    smo_train_many,
)
from .multiclass import (
    LabeledDataset,
    OvOModel,
    load_model,
    predict_phoneme,
    save_model,
    train_ovo,
    train_ovo_many,
)
from .experiment import ExperimentConfig, RunReport, build_dataset, evaluate, grid_search

__version__ = "0.1.0"
